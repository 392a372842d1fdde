//! The benchmark's own statistics: percentiles with a stated sample
//! support, quartiles as Python's `statistics.quantiles(n=4)` computes
//! them, open-loop latency from the intended send time, and span self
//! time.

use std::time::{Duration, Instant};

/// A percentile needs at least this many samples beyond it to be
/// reported; fewer makes the tail a statement about one or two requests.
pub const TAIL_SUPPORT: usize = 10;

/// The tail percentile the benchmark reports: p99 when the sample
/// supports it, else the highest percentile with at least
/// [`TAIL_SUPPORT`] samples beyond it. `None` when even that is
/// unsupported (`n <= TAIL_SUPPORT`).
#[must_use]
pub fn tail_quantile(n: usize) -> Option<f64> {
    if n <= TAIL_SUPPORT {
        return None;
    }
    Some(0.99_f64.min((n - TAIL_SUPPORT) as f64 / n as f64))
}

/// Nearest-rank quantile of an ascending-sorted sample: the smallest
/// value with at least `q · n` samples at or below it.
///
/// # Panics
///
/// Panics on an empty sample or `q` outside `(0, 1]`.
#[must_use]
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quartiles with Python's default `statistics.quantiles(data, n=4)`
/// ("exclusive" method): positions `(n + 1) · i / 4`, linearly
/// interpolated. Needs at least two samples.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..=3).zip(out.iter_mut()) {
        // Clamp first, then take the (possibly negative) remainder
        // against the clamped index, exactly as Python does.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Requests per window of [`windowed_tail`].
pub const TAIL_WINDOW: usize = 100;

/// The quantile a full window of [`TAIL_WINDOW`] requests supports with
/// [`TAIL_SUPPORT`] samples beyond it: p90.
pub const WINDOW_Q: f64 = 1.0 - TAIL_SUPPORT as f64 / TAIL_WINDOW as f64;

/// A tail that one burst of noise cannot move: split the sample (in send
/// order) into consecutive windows of [`TAIL_WINDOW`] requests, the last
/// window taking the remainder, and report the median over windows of
/// each window's p90 (the highest supported percentile of a window
/// shorter than [`TAIL_WINDOW`]). `None` for an empty sample.
#[must_use]
pub fn windowed_tail(in_send_order: &[f64]) -> Option<f64> {
    if in_send_order.is_empty() {
        return None;
    }
    let windows = (in_send_order.len() / TAIL_WINDOW).max(1);
    let tails: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                in_send_order.len()
            } else {
                (w + 1) * TAIL_WINDOW
            };
            let mut window = in_send_order[w * TAIL_WINDOW..end].to_vec();
            window.sort_by(f64::total_cmp);
            let q = tail_quantile(window.len()).map_or(1.0, |q| q.min(WINDOW_Q));
            nearest_rank(&window, q)
        })
        .collect();
    Some(median(&tails))
}

/// Summary of one latency sample: median and the supported tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// The tail percentile chosen by [`tail_quantile`]; the sample
    /// maximum when no percentile is supported.
    pub tail: f64,
    /// Which quantile `tail` is (`1.0` for the maximum).
    pub tail_q: f64,
}

/// Summarise a sample (any order). `None` when empty.
#[must_use]
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_q = tail_quantile(sorted.len()).unwrap_or(1.0);
    Some(Summary {
        n: sorted.len(),
        p50: nearest_rank(&sorted, 0.5),
        tail: nearest_rank(&sorted, tail_q),
        tail_q,
    })
}

/// Median of a sample (any order); `0.0` when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.p50)
}

/// Open-loop latency: from when the request was *due* to be sent to
/// when its response arrived. A generator that falls behind (or a
/// server stall that blocks sending) shows up as latency of every
/// delayed request, not as a silently lower offered rate.
#[must_use]
pub fn open_loop_latency(intended: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(intended)
}

/// One recorded span on the benchmark's timeline, in nanoseconds from
/// the trace origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `http.parse` or `client.request`.
    pub name: &'static str,
    /// The request the span belongs to (the `X-Scales-Request-Id`).
    pub request: u64,
    /// Index of the parent span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, ns since the trace origin.
    pub start: u64,
    /// End, ns since the trace origin (`>= start`).
    pub end: u64,
}

impl Span {
    /// Length in nanoseconds.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of every span: its length minus the part of its interval
/// that its children cover (overlapping children count once, and a
/// child sticking out of its parent only counts inside it).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let (s, e) = (span.start.max(parent.start), span.end.min(parent.end));
            if s < e {
                children[p].push((s, e));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for &(s, e) in kids.iter() {
                match &mut run {
                    Some((_, re)) if s <= *re => *re = (*re).max(e),
                    _ => {
                        if let Some((rs, re)) = run {
                            covered += re - rs;
                        }
                        run = Some((s, e));
                    }
                }
            }
            if let Some((rs, re)) = run {
                covered += re - rs;
            }
            span.len() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_only_with_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(10), None);
        assert_eq!(tail_quantile(2000), Some(0.99));
        assert_eq!(tail_quantile(1000), Some(0.99));
        // 500 samples support p98 (exactly ten beyond), not p99.
        assert_eq!(tail_quantile(500), Some(0.98));
        for n in [11, 37, 200, 999, 1000, 1001, 5000] {
            let q = tail_quantile(n).unwrap();
            let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let value = nearest_rank(&sorted, q);
            let beyond = sorted.iter().filter(|&&v| v > value).count();
            assert!(
                beyond >= TAIL_SUPPORT,
                "n={n}: only {beyond} samples beyond p{q}"
            );
            // And it is the highest such percentile (or p99).
            if q < 0.99 {
                let higher = nearest_rank(&sorted, (q + 1.0 / n as f64).min(1.0));
                let beyond_higher = sorted.iter().filter(|&&v| v > higher).count();
                assert!(
                    beyond_higher < TAIL_SUPPORT,
                    "n={n}: p{q} is not the highest"
                );
            }
        }
    }

    #[test]
    fn windowed_tail_is_a_supported_p90_that_one_burst_cannot_move() {
        assert!((WINDOW_Q - 0.90).abs() < 1e-12);
        assert_eq!(windowed_tail(&[]), None);
        // One window: its plain p90, which has ten samples beyond it.
        let one: Vec<f64> = (1..=TAIL_WINDOW).map(|i| i as f64).collect();
        assert_eq!(windowed_tail(&one), Some(90.0));
        assert_eq!(one.iter().filter(|&&v| v > 90.0).count(), TAIL_SUPPORT);
        // Five steady windows, one of them hit by a burst of 50 slow
        // requests: the median over windows ignores the burst.
        let mut five: Vec<f64> = (0..5 * TAIL_WINDOW)
            .map(|i| 1.0 + (i % TAIL_WINDOW) as f64 / 1000.0)
            .collect();
        for v in &mut five[2 * TAIL_WINDOW..2 * TAIL_WINDOW + 50] {
            *v = 100.0;
        }
        assert_eq!(windowed_tail(&five), Some(1.0 + 89.0 / 1000.0));
        // A remainder joins the last window instead of forming its own.
        let mut ragged = one.clone();
        ragged.extend((0..80).map(|_| 1000.0));
        assert_eq!(windowed_tail(&ragged), Some(1000.0));
        // A short sample is one window at its highest supported percentile.
        let short: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(windowed_tail(&short), Some(40.0));
    }

    #[test]
    fn nearest_rank_picks_sample_values() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&sorted, 0.5), 2.0);
        assert_eq!(nearest_rank(&sorted, 0.75), 3.0);
        assert_eq!(nearest_rank(&sorted, 1.0), 4.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            Some([15.0, 30.0, 45.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn latency_counts_from_the_intended_send_time() {
        let due = Instant::now();
        // The generator stalled 5 ms before it could send; the server
        // answered 1 ms after the actual send.
        let sent = due + Duration::from_millis(5);
        let done = sent + Duration::from_millis(1);
        assert_eq!(open_loop_latency(due, done), Duration::from_millis(6));
        // A response can never be earlier than its due time.
        assert_eq!(open_loop_latency(done, due), Duration::ZERO);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |name, parent, start, end| Span {
            name,
            request: 1,
            parent,
            start,
            end,
        };
        let spans = vec![
            span("client.request", None, 0, 100),
            // Two overlapping children cover [10, 50) once.
            span("server", Some(0), 10, 40),
            span("server.other", Some(0), 30, 50),
            // A child sticking out of its parent counts only inside it.
            span("late", Some(0), 90, 130),
            // Grandchildren do not reduce the root, only their parent.
            span("http.parse", Some(1), 10, 15),
            span("runtime.infer", Some(1), 15, 40),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 40 - 10);
        assert_eq!(selfs[1], 0, "telescoping stages cover the server span");
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[3], 40);
        assert_eq!(selfs[4], 5);
    }

    #[test]
    fn summary_reports_median_and_supported_tail() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.n, s.p50, s.tail, s.tail_q), (1000, 500.0, 990.0, 0.99));
        let small = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((small.p50, small.tail, small.tail_q), (2.0, 3.0, 1.0));
        assert!(summarize(&[]).is_none());
    }
}
