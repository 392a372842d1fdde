//! The load generator: open-loop phases at fixed rates, timed from each
//! request's intended send time, and closed-loop saturation phases, over
//! at most two lanes (one generator thread and one connection each).

use crate::stats::{self, Summary};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, and the answer matched the oracle bit for bit.
    Ok,
    /// Answered, but the output differed from the oracle.
    Mismatch,
    /// Refused by admission control (HTTP 429/503/504 or a typed
    /// submit refusal).
    Refused,
    /// Any other failure: error status, transport error, no answer.
    Failed,
}

/// The runtime's stage stamps for an in-process request:
/// `[enqueued, dequeued, sealed, infer_done]`.
pub type Stamps = [Instant; 4];

/// What an in-process answer tells about the server side: the
/// runtime's stage stamps and its dispatch's plan counters.
#[derive(Debug, Clone, Copy)]
pub struct ServerSide {
    /// Runtime stamps.
    pub stamps: Stamps,
    /// Execution plans the dispatch built.
    pub plans_built: usize,
    /// Forwards of the dispatch that reused a cached plan.
    pub plan_reuses: usize,
}

/// One answered (or abandoned) request as a lane reports it.
pub struct Completion {
    /// The request's id.
    pub id: u64,
    /// Verdict against the oracle.
    pub outcome: Outcome,
    /// When the answer was seen.
    pub done: Instant,
    /// Server-side detail, for in-process lanes.
    pub server: Option<ServerSide>,
}

/// A transport the generator drives: an HTTP connection or an
/// in-process runtime handle. Each lane lives on one generator thread.
pub trait Lane {
    /// Send request `id` carrying pool item `item`. An immediate refusal
    /// comes back as a completion.
    fn send(&mut self, id: u64, item: usize) -> Option<Completion>;
    /// Wait until `until` for answers; return early once any arrived.
    fn poll(&mut self, until: Instant) -> Vec<Completion>;
    /// Give up on everything still outstanding (reported as failed).
    fn abandon(&mut self) -> Vec<Completion>;
    /// Images per request.
    fn images_per_request(&self) -> usize;
}

/// The offered load of one phase.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Requests due at fixed spacing, `rate` per second across all lanes.
    Open {
        /// Requests per second.
        rate: f64,
    },
    /// Each lane keeps `window` requests outstanding.
    Closed {
        /// Outstanding requests per lane.
        window: usize,
    },
    /// Every pool item once per lane, one at a time (warm-up).
    Sweep,
}

/// One phase of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// `warmup`, `light`, `busy` or `saturation`.
    pub name: &'static str,
    /// Offered load.
    pub load: Load,
    /// Length of the sending window.
    pub duration: Duration,
}

/// One request's record.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Request id (unique in the run).
    pub id: u64,
    /// When it was due (open loop) or sent (closed loop).
    pub intended: Instant,
    /// When it was actually written.
    pub sent: Instant,
    /// When its answer was seen.
    pub done: Instant,
    /// Verdict.
    pub outcome: Outcome,
    /// Images it carried.
    pub images: usize,
    /// Server-side detail (in-process lanes).
    pub server: Option<ServerSide>,
}

/// Everything one phase produced.
pub struct PhaseResult {
    /// The phase run.
    pub phase: Phase,
    /// Start of the sending window.
    pub start: Instant,
    /// End of the sending window.
    pub end: Instant,
    /// Requests sent but unanswered when the sending window closed.
    pub backlog_end: usize,
    /// Every request of the phase.
    pub records: Vec<Record>,
}

/// How long a phase may take to drain its backlog before unanswered
/// requests count as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// Ids are `phase · 10⁸ + lane · 10⁷ + k`: unique, and readable in a
/// trace dump.
fn request_id(phase_no: usize, lane: usize, k: usize) -> u64 {
    (phase_no as u64) * 100_000_000 + (lane as u64) * 10_000_000 + k as u64
}

struct LaneResult {
    records: Vec<Record>,
    backlog_end: usize,
}

fn drive_lane(
    lane: &mut dyn Lane,
    lane_no: usize,
    lanes: usize,
    phase_no: usize,
    phase: Phase,
    pool: usize,
    start: Instant,
) -> LaneResult {
    let end = start + phase.duration;
    let images = lane.images_per_request();
    let mut outstanding: VecDeque<(u64, Instant, Instant)> = VecDeque::new();
    let mut records = Vec::new();
    let mut k = 0usize;
    let mut backlog_end = None;
    let due = |k: usize| match phase.load {
        Load::Open { rate } => start + Duration::from_secs_f64((k * lanes + lane_no) as f64 / rate),
        _ => start,
    };
    // Items cycle through the pool, interleaved across lanes.
    let item = |k: usize| (k * lanes + lane_no) % pool;
    let sweep_len = pool.div_ceil(lanes);
    let finish = |c: Completion,
                  outstanding: &mut VecDeque<(u64, Instant, Instant)>,
                  records: &mut Vec<Record>| {
        if let Some(pos) = outstanding.iter().position(|o| o.0 == c.id) {
            let (id, intended, sent) = outstanding.remove(pos).expect("position is in range");
            records.push(Record {
                id,
                intended,
                sent,
                done: c.done,
                outcome: c.outcome,
                images,
                server: c.server,
            });
        }
    };
    loop {
        let now = Instant::now();
        let sending = match phase.load {
            Load::Sweep => k < sweep_len,
            _ => now < end,
        };
        if sending {
            loop {
                let now = Instant::now();
                let go = match phase.load {
                    Load::Open { .. } => due(k) <= now && due(k) < end,
                    Load::Closed { window } => outstanding.len() < window,
                    Load::Sweep => outstanding.is_empty() && k < sweep_len,
                };
                if !go {
                    break;
                }
                let intended = match phase.load {
                    Load::Open { .. } => due(k),
                    _ => now,
                };
                let id = request_id(phase_no, lane_no, k);
                outstanding.push_back((id, intended, Instant::now()));
                if let Some(c) = lane.send(id, item(k)) {
                    finish(c, &mut outstanding, &mut records);
                }
                k += 1;
            }
        } else if backlog_end.is_none() {
            backlog_end = Some(outstanding.len());
        }
        if !sending && outstanding.is_empty() {
            break;
        }
        let now = Instant::now();
        if now >= end + DRAIN_LIMIT {
            for c in lane.abandon() {
                finish(c, &mut outstanding, &mut records);
            }
            for (id, intended, sent) in outstanding.drain(..) {
                records.push(Record {
                    id,
                    intended,
                    sent,
                    done: now,
                    outcome: Outcome::Failed,
                    images,
                    server: None,
                });
            }
            break;
        }
        let until = match (sending, phase.load) {
            (true, Load::Open { .. }) => due(k).min(end),
            (true, Load::Closed { .. }) => end,
            _ => end + DRAIN_LIMIT,
        };
        for c in lane.poll(until) {
            finish(c, &mut outstanding, &mut records);
        }
    }
    LaneResult {
        records,
        backlog_end: backlog_end.unwrap_or(0),
    }
}

/// Run one phase over `lanes`, one generator thread each. `control`
/// runs on the calling thread during the sending window (the fleet's
/// hot-swap schedule); it gets the window's start and end.
pub fn run_phase(
    lanes: &mut [Box<dyn Lane + Send + '_>],
    phase_no: usize,
    phase: Phase,
    pool: usize,
    control: &mut dyn FnMut(Instant, Instant),
) -> PhaseResult {
    let n = lanes.len();
    // A short lead so both threads are up before the first due time.
    let start = Instant::now() + Duration::from_millis(5);
    let results: Vec<LaneResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .enumerate()
            .map(|(lane_no, lane)| {
                scope.spawn(move || {
                    let now = Instant::now();
                    if now < start {
                        std::thread::sleep(start - now);
                    }
                    drive_lane(lane.as_mut(), lane_no, n, phase_no, phase, pool, start)
                })
            })
            .collect();
        if !matches!(phase.load, Load::Sweep) {
            control(start, start + phase.duration);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let end = match phase.load {
        Load::Sweep => results
            .iter()
            .flat_map(|r| &r.records)
            .map(|r| r.done)
            .max()
            .unwrap_or(start),
        _ => start + phase.duration,
    };
    let mut records: Vec<Record> = results
        .iter()
        .flat_map(|r| r.records.iter().copied())
        .collect();
    records.sort_by_key(|r| r.id);
    PhaseResult {
        phase,
        start,
        end,
        backlog_end: results.iter().map(|r| r.backlog_end).sum(),
        records,
    }
}

impl PhaseResult {
    /// Requests with the given outcome.
    #[must_use]
    pub fn count(&self, outcome: Outcome) -> usize {
        self.records.iter().filter(|r| r.outcome == outcome).count()
    }

    /// Latency summary (ms, from intended send) of the correctly
    /// answered requests.
    #[must_use]
    pub fn latency_ms(&self) -> Option<Summary> {
        let v: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.outcome == Outcome::Ok)
            .map(|r| stats::open_loop_latency(r.intended, r.done).as_secs_f64() * 1e3)
            .collect();
        stats::summarize(&v)
    }

    /// Latencies (ms, from intended send) of the correctly answered
    /// requests, in the order they were due.
    #[must_use]
    pub fn latencies_in_send_order(&self) -> Vec<f64> {
        let mut ok: Vec<&Record> = self
            .records
            .iter()
            .filter(|r| r.outcome == Outcome::Ok)
            .collect();
        ok.sort_by_key(|r| r.intended);
        ok.iter()
            .map(|r| stats::open_loop_latency(r.intended, r.done).as_secs_f64() * 1e3)
            .collect()
    }

    /// How late the generator sent (ms past the due time).
    #[must_use]
    pub fn lateness_ms(&self) -> Option<Summary> {
        let v: Vec<f64> = self
            .records
            .iter()
            .map(|r| r.sent.saturating_duration_since(r.intended).as_secs_f64() * 1e3)
            .collect();
        stats::summarize(&v)
    }

    /// Share of sent requests answered correctly within `limit`;
    /// failures and refusals count as misses.
    #[must_use]
    pub fn slo_share(&self, limit: Duration) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let met = self
            .records
            .iter()
            .filter(|r| {
                r.outcome == Outcome::Ok && stats::open_loop_latency(r.intended, r.done) <= limit
            })
            .count();
        met as f64 / self.records.len() as f64
    }

    /// Correct images answered inside the sending window, per second.
    #[must_use]
    pub fn images_per_sec(&self) -> f64 {
        let window = self.end.saturating_duration_since(self.start).as_secs_f64();
        let images: usize = self
            .records
            .iter()
            .filter(|r| r.outcome == Outcome::Ok && r.done <= self.end)
            .map(|r| r.images)
            .sum();
        images as f64 / window.max(1e-9)
    }

    /// The honest-load line for this phase.
    #[must_use]
    pub fn report_json(&self, offered: &str) -> String {
        let num = |s: Option<Summary>, f: fn(&Summary) -> f64| s.as_ref().map_or(0.0, f);
        let lat = self.latency_ms();
        let late = self.lateness_ms();
        format!(
            "{{\"phase\":\"{}\",\"offered\":\"{offered}\",\"window_s\":{:.3},\"sent\":{},\"succeeded\":{},\
             \"failed\":{},\"refused\":{},\"mismatched\":{},\"backlog_end\":{},\"p50_ms\":{:.4},\
             \"tail_ms\":{:.4},\"tail_q\":{:.4},\"samples\":{},\"late_p50_ms\":{:.4},\"late_tail_ms\":{:.4},\
             \"images_per_s\":{:.3}}}",
            self.phase.name,
            self.end.saturating_duration_since(self.start).as_secs_f64(),
            self.records.len(),
            self.count(Outcome::Ok),
            self.count(Outcome::Failed),
            self.count(Outcome::Refused),
            self.count(Outcome::Mismatch),
            self.backlog_end,
            num(lat, |s| s.p50),
            num(lat, |s| s.tail),
            num(lat, |s| s.tail_q),
            lat.map_or(0, |s| s.n),
            num(late, |s| s.p50),
            num(late, |s| s.tail),
            self.images_per_sec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers every request at once, but its first send stalls.
    struct StallingLane {
        stall: Option<Duration>,
    }

    impl Lane for StallingLane {
        fn send(&mut self, id: u64, _item: usize) -> Option<Completion> {
            if let Some(stall) = self.stall.take() {
                std::thread::sleep(stall);
            }
            Some(Completion {
                id,
                outcome: Outcome::Ok,
                done: Instant::now(),
                server: None,
            })
        }
        fn poll(&mut self, until: Instant) -> Vec<Completion> {
            std::thread::sleep(until.saturating_duration_since(Instant::now()));
            Vec::new()
        }
        fn abandon(&mut self) -> Vec<Completion> {
            Vec::new()
        }
        fn images_per_request(&self) -> usize {
            1
        }
    }

    #[test]
    fn a_stall_shows_as_latency_not_as_a_lower_offered_rate() {
        let stall = Duration::from_millis(40);
        let mut lanes: Vec<Box<dyn Lane + Send>> =
            vec![Box::new(StallingLane { stall: Some(stall) })];
        let phase = Phase {
            name: "busy",
            load: Load::Open { rate: 200.0 },
            duration: Duration::from_millis(100),
        };
        let result = run_phase(&mut lanes, 1, phase, 1, &mut |_, _| {});
        // Every request due in the window was sent: 100 ms at 5 ms spacing.
        assert_eq!(result.records.len(), 20);
        // The second request was due 5 ms in but could only go out after
        // the 40 ms stall; it is answered instantly, yet its latency counts
        // from when it was due.
        let second = result.records[1];
        let latency = stats::open_loop_latency(second.intended, second.done);
        assert!(
            latency >= Duration::from_millis(30),
            "latency {latency:?} hides the stall"
        );
        assert!(second.sent.duration_since(second.intended) >= Duration::from_millis(30));
        // The requests due during the stall all went out late.
        let late = result
            .records
            .iter()
            .filter(|r| r.sent.duration_since(r.intended) >= Duration::from_millis(20))
            .count();
        assert!(late >= 4, "only {late} requests went out late");
    }
}
