//! The flight recorder: bounded rings of recent and slow request
//! traces, always on, cheap enough to sit on the response path.

use crate::{RequestId, RequestTrace};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Fixed shard count: enough to keep response-path writers from
/// serializing on one lock without growing the snapshot cost.
const SHARDS: usize = 4;

/// Poison-tolerant lock (a panicking recorder user must not take the
/// debug endpoints down with it).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Inline name capacity of a packed slot: id, tenant and model bytes
/// back to back. Generated ids take about 16 bytes.
const NAME_BYTES: usize = 32;

/// Packed `deadline_slack_ns` for `None`. A trace whose slack really is
/// `i64::MIN` spills instead.
const NO_SLACK: i64 = i64::MIN;

/// Packed name length of an absent tenant or model.
const ABSENT: u8 = u8::MAX;

/// One retained trace and its recording sequence number. Rings retain
/// tens of thousands of traces, so the common case packs into a
/// fixed-size, heap-free slot; a trace that does not fit spills to a
/// boxed copy. Either way the snapshot rebuilds the recorded trace
/// exactly.
#[derive(Clone)]
enum Slot {
    Packed {
        seq: u64,
        /// [`NO_SLACK`] for `None`.
        slack_ns: i64,
        /// `total_ns` is not stored: it is the sum of these.
        stage_ns: [u32; 8],
        status: u16,
        names: [u8; NAME_BYTES],
        /// Byte lengths of id, tenant and model in `names`; [`ABSENT`]
        /// for `None`.
        lens: [u8; 3],
    },
    Spilled {
        seq: u64,
        trace: Box<RequestTrace>,
    },
}

impl Slot {
    fn new(seq: u64, trace: RequestTrace) -> Self {
        Self::pack(seq, &trace).unwrap_or_else(|| Slot::Spilled { seq, trace: Box::new(trace) })
    }

    /// `None` when the names overflow [`NAME_BYTES`], a stage is 2³² ns
    /// or longer, `total_ns` is not the stage sum, or the slack collides
    /// with [`NO_SLACK`].
    fn pack(seq: u64, trace: &RequestTrace) -> Option<Self> {
        let slack_ns = match trace.deadline_slack_ns {
            None => NO_SLACK,
            Some(NO_SLACK) => return None,
            Some(slack) => slack,
        };
        let mut stage_ns = [0; 8];
        for (packed, &ns) in stage_ns.iter_mut().zip(&trace.stage_ns) {
            *packed = u32::try_from(ns).ok()?;
        }
        if stage_ns.iter().map(|&ns| u64::from(ns)).sum::<u64>() != trace.total_ns {
            return None;
        }
        let mut names = [0; NAME_BYTES];
        let mut lens = [ABSENT; 3];
        let mut at = 0;
        let fields = [Some(trace.id.as_str()), trace.tenant.as_deref(), trace.model.as_deref()];
        for (len, name) in lens.iter_mut().zip(fields) {
            let Some(name) = name else { continue };
            let end = at + name.len();
            names.get_mut(at..end)?.copy_from_slice(name.as_bytes());
            *len = u8::try_from(name.len()).ok()?;
            at = end;
        }
        Some(Slot::Packed { seq, slack_ns, stage_ns, status: trace.status, names, lens })
    }

    fn seq(&self) -> u64 {
        match self {
            Slot::Packed { seq, .. } | Slot::Spilled { seq, .. } => *seq,
        }
    }

    fn trace(&self) -> RequestTrace {
        let (slack_ns, stage_ns, status, names, lens) = match self {
            Slot::Spilled { trace, .. } => return (**trace).clone(),
            Slot::Packed { slack_ns, stage_ns, status, names, lens, .. } => {
                (*slack_ns, stage_ns, *status, names, lens)
            }
        };
        let mut at = 0;
        let mut next = |len: u8| {
            (len != ABSENT).then(|| {
                let bytes = &names[at..at + usize::from(len)];
                at += usize::from(len);
                std::str::from_utf8(bytes).expect("packed names were copied from whole strs")
            })
        };
        let id = RequestId::from_recorded(next(lens[0]).expect("every trace has an id"));
        let tenant = next(lens[1]).map(str::to_owned);
        let model = next(lens[2]).map(str::to_owned);
        RequestTrace {
            id,
            tenant,
            model,
            status,
            stage_ns: stage_ns.map(u64::from),
            total_ns: stage_ns.iter().map(|&ns| u64::from(ns)).sum(),
            deadline_slack_ns: (slack_ns != NO_SLACK).then_some(slack_ns),
        }
    }
}

/// One bounded ring of slots, oldest first.
struct Ring {
    capacity: usize,
    slots: VecDeque<Slot>,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Self { capacity, slots: VecDeque::with_capacity(capacity) }
    }

    fn push(&mut self, slot: Slot) {
        if self.capacity == 0 {
            return;
        }
        if self.slots.len() == self.capacity {
            self.slots.pop_front();
        }
        self.slots.push_back(slot);
    }
}

/// A mutex-sharded, fixed-capacity ring of completed request traces,
/// plus a separate ring that retains only requests slower than a
/// threshold — so one burst of fast traffic cannot flush the slow
/// outliers a postmortem actually needs.
///
/// [`record`](FlightRecorder::record) takes one shard lock (writers are
/// distributed round-robin); snapshots lock each shard briefly in turn
/// and splice by a global sequence number, so the returned order is
/// oldest → newest across shards.
pub struct FlightRecorder {
    shards: [Mutex<Ring>; SHARDS],
    slow: Mutex<Ring>,
    slow_threshold: Duration,
    next_shard: AtomicUsize,
    next_seq: AtomicU64,
}

impl FlightRecorder {
    /// A recorder retaining up to `capacity` recent traces and, above
    /// `slow_threshold` end-to-end latency, up to `slow_capacity` slow
    /// traces.
    #[must_use]
    pub fn new(capacity: usize, slow_threshold: Duration, slow_capacity: usize) -> Self {
        // Spread the capacity over the shards; earlier shards take the
        // remainder so the total retained is exactly `capacity`.
        let shards = std::array::from_fn(|i| {
            Mutex::new(Ring::new(capacity / SHARDS + usize::from(i < capacity % SHARDS)))
        });
        Self {
            shards,
            slow: Mutex::new(Ring::new(slow_capacity)),
            slow_threshold,
            next_shard: AtomicUsize::new(0),
            next_seq: AtomicU64::new(0),
        }
    }

    /// Total traces retained across shards when full.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| lock(s).capacity).sum()
    }

    /// The end-to-end latency above which a trace is also retained in
    /// the slow ring.
    #[must_use]
    pub fn slow_threshold(&self) -> Duration {
        self.slow_threshold
    }

    /// Record one completed request.
    pub fn record(&self, trace: RequestTrace) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let slow = Duration::from_nanos(trace.total_ns) >= self.slow_threshold;
        let slot = Slot::new(seq, trace);
        if slow {
            lock(&self.slow).push(slot.clone());
        }
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % SHARDS;
        lock(&self.shards[shard]).push(slot);
    }

    /// Snapshot of the retained recent traces, oldest → newest.
    #[must_use]
    pub fn recent(&self) -> Vec<RequestTrace> {
        let mut all: Vec<Slot> = Vec::new();
        for shard in &self.shards {
            all.extend(lock(shard).slots.iter().cloned());
        }
        all.sort_by_key(Slot::seq);
        all.iter().map(Slot::trace).collect()
    }

    /// Snapshot of the retained slow traces, oldest → newest.
    #[must_use]
    pub fn slow(&self) -> Vec<RequestTrace> {
        let slots: Vec<Slot> = lock(&self.slow).slots.iter().cloned().collect();
        slots.iter().map(Slot::trace).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stage;

    fn trace(tag: u32, total_ns: u64) -> RequestTrace {
        let mut t = RequestTrace::new(RequestId::parse(&format!("t-{tag}")).unwrap(), 200);
        t.stage_ns[Stage::Infer as usize] = total_ns;
        t.total_ns = total_ns;
        t
    }

    /// Record `t` into both rings and read it back from each.
    fn round_trip(t: &RequestTrace) -> RequestTrace {
        let recorder = FlightRecorder::new(1, Duration::ZERO, 1);
        recorder.record(t.clone());
        let recent = recorder.recent();
        assert_eq!(recorder.slow(), recent, "both rings rebuild the same trace");
        assert_eq!(recent.len(), 1);
        recent.into_iter().next().unwrap()
    }

    fn packs(t: &RequestTrace) -> bool {
        matches!(Slot::new(0, t.clone()), Slot::Packed { .. })
    }

    fn named(id: usize, tenant: Option<usize>, model: Option<usize>) -> RequestTrace {
        let mut t = RequestTrace::new(RequestId::parse(&"i".repeat(id)).unwrap(), 200);
        t.tenant = tenant.map(|n| "t".repeat(n));
        t.model = model.map(|n| "m".repeat(n));
        t.stage_ns = [1, 2, 3, 4, 5, 6, 7, 8];
        t.total_ns = 36;
        t
    }

    #[test]
    fn ring_slots_fit_in_88_bytes() {
        let size = std::mem::size_of::<Slot>();
        assert!(size <= 88, "a ring slot is {size} bytes");
    }

    #[test]
    fn names_pack_up_to_the_inline_buffer_and_spill_beyond_it() {
        for (t, fits) in [
            (named(10, Some(10), Some(NAME_BYTES - 20)), true),
            (named(10, Some(10), Some(NAME_BYTES - 19)), false),
            (named(NAME_BYTES, None, None), true),
            (named(NAME_BYTES + 1, None, None), false),
            (named(10, Some(15), Some(15)), false), // 40 bytes
            (named(1, Some(0), None), true),        // an empty tenant is not an absent one
            (named(64, Some(64), Some(64)), false),
        ] {
            let label = format!("{:?}/{:?}/{:?}", t.id, t.tenant, t.model);
            assert_eq!(packs(&t), fits, "{label}");
            assert_eq!(round_trip(&t), t, "{label}");
        }
        // A fleet trace: generated id, tenant and model all inline.
        let mut fleet = trace(0, 0);
        fleet.id = RequestId::generate();
        fleet.tenant = Some("tenant-b".into());
        fleet.model = Some("srresnet".into());
        assert!(packs(&fleet));
        assert_eq!(round_trip(&fleet), fleet);
    }

    #[test]
    fn stage_spans_pack_up_to_u32_max_nanoseconds() {
        for (ns, fits) in [(u64::from(u32::MAX), true), (u64::from(u32::MAX) + 1, false)] {
            let mut t = named(4, None, None);
            t.stage_ns[Stage::Infer as usize] = ns;
            t.total_ns = t.stage_ns.iter().sum();
            assert_eq!(packs(&t), fits, "{ns} ns");
            assert_eq!(round_trip(&t), t, "{ns} ns");
        }
    }

    #[test]
    fn a_total_that_is_not_the_stage_sum_spills_and_survives() {
        let mut t = named(4, None, None);
        t.total_ns += 1;
        assert!(!packs(&t));
        assert_eq!(round_trip(&t), t);
    }

    #[test]
    fn deadline_slack_round_trips_including_the_sentinel_value() {
        for (slack, fits) in [
            (None, true),
            (Some(-5), true),
            (Some(0), true),
            (Some(i64::MAX), true),
            (Some(i64::MIN + 1), true),
            (Some(i64::MIN), false),
        ] {
            let mut t = named(4, Some(3), None);
            t.deadline_slack_ns = slack;
            assert_eq!(packs(&t), fits, "{slack:?}");
            assert_eq!(round_trip(&t), t, "{slack:?}");
        }
    }

    #[test]
    fn recent_ring_wraps_at_capacity_under_a_2x_burst() {
        let recorder = FlightRecorder::new(8, Duration::from_secs(1), 4);
        assert_eq!(recorder.capacity(), 8);
        for i in 0..16 {
            recorder.record(trace(i, 1_000));
        }
        let recent = recorder.recent();
        assert_eq!(recent.len(), 8, "the ring holds exactly its capacity");
        // Round-robin sharding keeps exactly the newest traces: the
        // burst is even over the shards, so each shard evicted its own
        // oldest half.
        let ids: Vec<&str> = recent.iter().map(|t| t.id.as_str()).collect();
        assert_eq!(ids, ["t-8", "t-9", "t-10", "t-11", "t-12", "t-13", "t-14", "t-15"]);
    }

    #[test]
    fn slow_ring_retains_outliers_fast_traffic_would_flush() {
        let recorder = FlightRecorder::new(4, Duration::from_millis(1), 4);
        recorder.record(trace(0, 2_000_000)); // 2 ms: slow
        for i in 1..9 {
            recorder.record(trace(i, 1_000)); // fast burst, 2x capacity
        }
        assert!(
            recorder.recent().iter().all(|t| t.total_ns == 1_000),
            "the fast burst flushed the outlier from the recent ring"
        );
        let slow = recorder.slow();
        assert_eq!(slow.len(), 1, "…but the slow ring kept it");
        assert_eq!(slow[0].id.as_str(), "t-0");
        // Exactly at the threshold counts as slow.
        recorder.record(trace(9, 1_000_000));
        assert_eq!(recorder.slow().len(), 2);
    }

    #[test]
    fn slow_ring_is_bounded_too() {
        let recorder = FlightRecorder::new(4, Duration::ZERO, 3);
        for i in 0..7 {
            recorder.record(trace(i, i as u64));
        }
        let slow = recorder.slow();
        assert_eq!(slow.len(), 3);
        assert_eq!(slow[0].id.as_str(), "t-4", "oldest slow traces evict first");
    }

    #[test]
    fn tiny_capacities_split_unevenly_but_exactly() {
        let recorder = FlightRecorder::new(3, Duration::from_secs(1), 1);
        for i in 0..30 {
            recorder.record(trace(i, 0));
        }
        assert_eq!(recorder.capacity(), 3);
        assert_eq!(recorder.recent().len(), 3);
    }

    #[test]
    fn snapshots_are_ordered_oldest_to_newest() {
        let recorder = FlightRecorder::new(16, Duration::from_secs(1), 4);
        for i in 0..10 {
            recorder.record(trace(i, 0));
        }
        let ids: Vec<String> =
            recorder.recent().iter().map(|t| t.id.as_str().to_string()).collect();
        let mut sorted = ids.clone();
        sorted.sort_by_key(|s| s[2..].parse::<u32>().unwrap());
        assert_eq!(ids, sorted);
    }
}
