//! SWAB — Sliding-Window-And-Bottom-up time-series segmentation.
//!
//! Reimplementation of the online segmentation algorithm of Keogh, Chu,
//! Hart & Pazzani, *"An online algorithm for segmenting time series"*
//! (ICDM 2001), which the paper's branch α uses for trend estimation before
//! SAX symbolization.
//!
//! Bottom-up merging starts from fine 2-point segments and repeatedly merges
//! the pair whose merged least-squares fit is cheapest, while the merged
//! error stays under `max_error`. SWAB wraps bottom-up in a sliding buffer
//! so the algorithm works online over unbounded series while retaining
//! bottom-up's approximation quality.
//!
//! Two implementations share one arithmetic core:
//!
//! * [`bottom_up`] — O(n log n): incremental segment statistics (prefix sums
//!   of Σy, Σxy, Σy² make every candidate fit O(1)) and a lazy-deletion
//!   binary heap over merge costs, so each merge costs O(log n) instead of a
//!   full re-fit-and-rescan pass.
//! * [`bottom_up_naive`] — the retained O(n²) reference: the original
//!   fit-every-candidate / linear-min-scan structure.
//!
//! Both call the same `FitTable` for every candidate, so their costs are
//! bit-identical and they produce identical segment boundaries (asserted by
//! property tests in `tests/series_properties.rs`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::segment::Segment;

/// Prefix sums over a series enabling O(1) least-squares fits of any
/// sub-range. `x` is the absolute index; fits translate to the window-local
/// `x' = 0..len` frame used by [`Segment::fit`].
struct FitTable {
    /// `y[i]` = Σ data[..i].
    y: Vec<f64>,
    /// `xy[i]` = Σ j·data[j] for j < i.
    xy: Vec<f64>,
    /// `yy[i]` = Σ data[..i]².
    yy: Vec<f64>,
}

impl FitTable {
    fn new(data: &[f64]) -> FitTable {
        let n = data.len();
        let (mut y, mut xy, mut yy) = (
            Vec::with_capacity(n + 1),
            Vec::with_capacity(n + 1),
            Vec::with_capacity(n + 1),
        );
        let (mut sy, mut sxy, mut syy) = (0.0f64, 0.0f64, 0.0f64);
        y.push(0.0);
        xy.push(0.0);
        yy.push(0.0);
        for (i, &v) in data.iter().enumerate() {
            sy += v;
            sxy += i as f64 * v;
            syy += v * v;
            y.push(sy);
            xy.push(sxy);
            yy.push(syy);
        }
        FitTable { y, xy, yy }
    }

    /// Least-squares fit of `data[start..end]` in O(1).
    ///
    /// The residual error is canonicalized to `+0.0` when cancellation makes
    /// the closed form non-positive (or NaN), so the heap's `total_cmp`
    /// ordering and the naive scan's `<` comparison agree on ties.
    fn fit(&self, start: usize, end: usize) -> Segment {
        debug_assert!(start < end && end < self.y.len());
        let len = end - start;
        let sum_y = self.y[end] - self.y[start];
        if len == 1 {
            return Segment {
                start,
                end,
                slope: 0.0,
                intercept: sum_y,
                error: 0.0,
            };
        }
        let n = len as f64;
        // Translate absolute-x sums into the window-local frame x' = x - start.
        let sum_xy = (self.xy[end] - self.xy[start]) - start as f64 * sum_y;
        let sum_yy = self.yy[end] - self.yy[start];
        // x' = 0..len, so Σx' and Σx'² are closed-form.
        let sum_x = (n - 1.0) * n / 2.0;
        let sum_x2 = (n - 1.0) * n * (2.0 * n - 1.0) / 6.0;
        let denom = n * sum_x2 - sum_x * sum_x;
        let slope = if denom.abs() < 1e-12 {
            0.0
        } else {
            (n * sum_xy - sum_x * sum_y) / denom
        };
        let intercept = (sum_y - slope * sum_x) / n;
        // RSS = Σy² + n·a² + b²·Σx² − 2a·Σy − 2b·Σxy + 2ab·Σx  (a = intercept,
        // b = slope). Cancellation can push this a few ulps negative.
        let raw = sum_yy + n * intercept * intercept + slope * slope * sum_x2
            - 2.0 * intercept * sum_y
            - 2.0 * slope * sum_xy
            + 2.0 * intercept * slope * sum_x;
        let error = if raw > 0.0 { raw } else { 0.0 };
        Segment {
            start,
            end,
            slope,
            intercept,
            error,
        }
    }
}

/// Initial fine segmentation shared by both implementations: pairs, plus a
/// trailing singleton when the length is odd.
fn initial_pairs(fits: &FitTable, n: usize) -> Vec<Segment> {
    let mut segments: Vec<Segment> = (0..n / 2)
        .map(|i| fits.fit(2 * i, (2 * i + 2).min(n)))
        .collect();
    if n % 2 == 1 {
        segments.push(fits.fit(n - 1, n));
    }
    segments
}

/// One candidate merge in the heap: merging the node starting at `start`
/// with its current right neighbour would cost `cost`.
struct Cand {
    cost: f64,
    start: usize,
    /// Node ids of the pair, with the stamps they had at push time; a
    /// mismatch at pop time means the candidate is stale.
    left: usize,
    right: usize,
    stamp_left: u64,
    stamp_right: u64,
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Cand {}
impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cand {
    /// Reversed so the std max-heap pops the *cheapest* candidate; ties
    /// break on the smaller start index — exactly the segment the naive
    /// left-to-right strict-`<` scan would select.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.start.cmp(&self.start))
    }
}

/// Bottom-up segmentation of an entire series in O(n log n).
///
/// Merges adjacent segments greedily while the merged segment's residual
/// error stays at or below `max_error`. Returns at least one segment for a
/// non-empty series; an empty series yields no segments.
///
/// Produces exactly the segments of [`bottom_up_naive`] (same boundaries,
/// same fits) — the two share their fit arithmetic, and the heap's
/// tie-breaking replicates the naive scan's leftmost-minimum selection.
pub fn bottom_up(data: &[f64], max_error: f64) -> Vec<Segment> {
    let n = data.len();
    if n == 0 {
        return Vec::new();
    }
    let fits = FitTable::new(data);
    if n == 1 {
        return vec![fits.fit(0, 1)];
    }
    let segments = initial_pairs(&fits, n);
    let m = segments.len();
    if m < 2 {
        return segments;
    }

    // Doubly-linked list over node ids 0..m; `stamp` bumps whenever a
    // node's extent changes or the node dies, invalidating older heap
    // entries lazily.
    let mut seg: Vec<Segment> = segments;
    let mut alive = vec![true; m];
    let mut stamp = vec![0u64; m];
    let mut prev: Vec<usize> = (0..m).map(|i| i.wrapping_sub(1)).collect();
    let mut next: Vec<usize> = (1..=m).collect();
    const NONE: usize = usize::MAX;
    prev[0] = NONE;
    next[m - 1] = NONE;

    let mut heap: BinaryHeap<Cand> = BinaryHeap::with_capacity(2 * m);
    let push =
        |heap: &mut BinaryHeap<Cand>, seg: &[Segment], stamp: &[u64], left: usize, right: usize| {
            let cost = fitted_cost(&fits, seg[left].start, seg[right].end);
            heap.push(Cand {
                cost,
                start: seg[left].start,
                left,
                right,
                stamp_left: stamp[left],
                stamp_right: stamp[right],
            });
        };
    for left in 0..m - 1 {
        push(&mut heap, &seg, &stamp, left, left + 1);
    }

    let mut remaining = m;
    while remaining > 1 {
        let Some(cand) = heap.pop() else { break };
        let (l, r) = (cand.left, cand.right);
        // Lazy deletion: skip candidates whose nodes changed since push.
        if !alive[l]
            || !alive[r]
            || stamp[l] != cand.stamp_left
            || stamp[r] != cand.stamp_right
            || next[l] != r
        {
            continue;
        }
        // The cheapest valid merge exceeds the budget, or the budget is
        // NaN: done (matches the naive loop's termination).
        if matches!(
            cand.cost.partial_cmp(&max_error),
            None | Some(std::cmp::Ordering::Greater)
        ) {
            break;
        }
        seg[l] = fits.fit(seg[l].start, seg[r].end);
        stamp[l] += 1;
        alive[r] = false;
        stamp[r] += 1;
        let rn = next[r];
        next[l] = rn;
        if rn != NONE {
            prev[rn] = l;
            push(&mut heap, &seg, &stamp, l, rn);
        }
        let lp = prev[l];
        if lp != NONE {
            push(&mut heap, &seg, &stamp, lp, l);
        }
        remaining -= 1;
    }

    (0..m)
        .filter(|&i| alive[i])
        .map(|i| seg[i].clone())
        .collect()
}

/// The cost of merging `[start, end)` — the merged fit's residual error.
/// One shared function so the heap and the naive scan compare identical
/// bits.
fn fitted_cost(fits: &FitTable, start: usize, end: usize) -> f64 {
    fits.fit(start, end).error
}

/// The retained O(n²) reference implementation of [`bottom_up`]: full
/// candidate re-fit and a linear minimum scan per merge, structurally the
/// original algorithm. It uses the same `FitTable` arithmetic as the heap
/// version, so both produce bit-identical segmentations; property tests
/// hold the fast path to this oracle.
pub fn bottom_up_naive(data: &[f64], max_error: f64) -> Vec<Segment> {
    let n = data.len();
    if n == 0 {
        return Vec::new();
    }
    let fits = FitTable::new(data);
    if n == 1 {
        return vec![fits.fit(0, 1)];
    }
    let mut segments = initial_pairs(&fits, n);
    loop {
        if segments.len() < 2 {
            break;
        }
        // Find the cheapest adjacent merge (leftmost wins ties).
        let mut best: Option<(usize, f64)> = None;
        for i in 0..segments.len() - 1 {
            let cost = fitted_cost(&fits, segments[i].start, segments[i + 1].end);
            if best.map(|(_, b)| cost < b).unwrap_or(true) {
                best = Some((i, cost));
            }
        }
        match best {
            Some((i, cost)) if cost <= max_error => {
                segments[i] = fits.fit(segments[i].start, segments[i + 1].end);
                segments.remove(i + 1);
            }
            _ => break,
        }
    }
    segments
}

/// Configuration for [`swab`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwabConfig {
    /// Maximum residual sum of squares allowed per merged segment.
    pub max_error: f64,
    /// Sliding buffer capacity in points (clamped to at least 4).
    pub buffer_len: usize,
}

impl Default for SwabConfig {
    fn default() -> Self {
        SwabConfig {
            max_error: 1.0,
            buffer_len: 64,
        }
    }
}

/// Shared SWAB driver, parameterized over the bottom-up kernel.
fn swab_with(
    data: &[f64],
    config: SwabConfig,
    bottom_up: impl Fn(&[f64], f64) -> Vec<Segment>,
) -> Vec<Segment> {
    let n = data.len();
    if n == 0 {
        return Vec::new();
    }
    let buffer_len = config.buffer_len.max(4);
    if n <= buffer_len {
        return bottom_up(data, config.max_error);
    }
    let mut out: Vec<Segment> = Vec::new();
    let mut lo = 0usize;
    loop {
        let hi = (lo + buffer_len).min(n);
        let window = &data[lo..hi];
        let mut segs = bottom_up(window, config.max_error);
        debug_assert!(!segs.is_empty());
        if hi == n {
            // Final buffer: emit everything.
            for s in segs {
                out.push(Segment {
                    start: s.start + lo,
                    end: s.end + lo,
                    ..s
                });
            }
            break;
        }
        // Emit only the leftmost segment, then slide past it.
        let first = segs.remove(0);
        let advance = first.len();
        out.push(Segment {
            start: first.start + lo,
            end: first.end + lo,
            ..first
        });
        lo += advance;
    }
    out
}

/// SWAB: online segmentation via a sliding buffer over [`bottom_up`].
///
/// Processes `data` through a buffer of `config.buffer_len` points: run
/// bottom-up on the buffer, emit its leftmost segment, slide the buffer past
/// it, refill, repeat. Segment indices refer to positions in `data`.
///
/// # Examples
///
/// ```
/// use ivnt_series::swab::{swab, SwabConfig};
///
/// // Two clear regimes: flat then rising.
/// let mut data = vec![0.0; 50];
/// data.extend((0..50).map(|i| i as f64));
/// let segments = swab(&data, SwabConfig { max_error: 2.0, buffer_len: 40 });
/// assert!(segments.len() >= 2);
/// // Segments tile the series exactly.
/// assert_eq!(segments.first().unwrap().start, 0);
/// assert_eq!(segments.last().unwrap().end, data.len());
/// ```
pub fn swab(data: &[f64], config: SwabConfig) -> Vec<Segment> {
    swab_with(data, config, bottom_up)
}

/// [`swab`] over the [`bottom_up_naive`] reference kernel — the oracle the
/// equivalence property tests and the `pipeline_e2e` bench compare against.
pub fn swab_naive(data: &[f64], config: SwabConfig) -> Vec<Segment> {
    swab_with(data, config, bottom_up_naive)
}

/// Verifies that segments tile `0..len` contiguously (test helper, also
/// used by property tests downstream).
pub fn is_contiguous(segments: &[Segment], len: usize) -> bool {
    if len == 0 {
        return segments.is_empty();
    }
    let mut expected = 0usize;
    for s in segments {
        if s.start != expected || s.end <= s.start {
            return false;
        }
        expected = s.end;
    }
    expected == len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton() {
        assert!(bottom_up(&[], 1.0).is_empty());
        let s = bottom_up(&[5.0], 1.0);
        assert_eq!(s.len(), 1);
        assert_eq!((s[0].start, s[0].end), (0, 1));
        assert!(swab(&[], SwabConfig::default()).is_empty());
        assert!(bottom_up_naive(&[], 1.0).is_empty());
        assert_eq!(bottom_up_naive(&[5.0], 1.0), s);
    }

    #[test]
    fn perfect_line_merges_to_one_segment() {
        let data: Vec<f64> = (0..40).map(|i| 0.5 * i as f64).collect();
        let segs = bottom_up(&data, 0.5);
        assert_eq!(segs.len(), 1);
        assert!((segs[0].slope - 0.5).abs() < 1e-9);
    }

    #[test]
    fn step_function_splits_at_step() {
        let mut data = vec![0.0; 20];
        data.extend(vec![10.0; 20]);
        let segs = bottom_up(&data, 0.5);
        assert!(segs.len() >= 2);
        assert!(is_contiguous(&segs, data.len()));
        // Some boundary must fall exactly at the step.
        assert!(segs.iter().any(|s| s.end == 20 || s.start == 20));
    }

    #[test]
    fn zero_error_budget_keeps_fine_segments() {
        let data = [0.0, 5.0, 0.0, 5.0, 0.0, 5.0];
        let segs = bottom_up(&data, 0.0);
        assert!(is_contiguous(&segs, data.len()));
        assert!(segs.len() >= 3);
    }

    #[test]
    fn huge_error_budget_merges_everything() {
        let data: Vec<f64> = (0..30).map(|i| (i as f64).sin()).collect();
        let segs = bottom_up(&data, f64::INFINITY);
        assert_eq!(segs.len(), 1);
    }

    #[test]
    fn swab_is_contiguous_and_matches_regimes() {
        let mut data = vec![1.0; 100];
        data.extend((0..100).map(|i| 1.0 + i as f64 * 0.8));
        data.extend(vec![81.0; 100]);
        let segs = swab(
            &data,
            SwabConfig {
                max_error: 2.0,
                buffer_len: 50,
            },
        );
        assert!(is_contiguous(&segs, data.len()));
        assert!(segs.len() >= 3);
    }

    #[test]
    fn swab_small_input_delegates_to_bottom_up() {
        let data: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let a = swab(
            &data,
            SwabConfig {
                max_error: 0.1,
                buffer_len: 64,
            },
        );
        let b = bottom_up(&data, 0.1);
        assert_eq!(a, b);
    }

    #[test]
    fn segment_errors_within_budget_except_irreducible() {
        let data: Vec<f64> = (0..200)
            .map(|i| {
                if i % 7 == 0 {
                    3.0
                } else {
                    (i as f64 * 0.1).sin()
                }
            })
            .collect();
        let budget = 0.8;
        let segs = swab(
            &data,
            SwabConfig {
                max_error: budget,
                buffer_len: 48,
            },
        );
        assert!(is_contiguous(&segs, data.len()));
        for s in &segs {
            // Merged segments obey the budget; irreducible 2-point pairs may not,
            // but a 2-point least-squares fit is exact, so all must comply except
            // possibly unmergeable minimal pieces, which are exact anyway.
            if s.len() > 2 {
                assert!(
                    s.error <= budget + 1e-9,
                    "segment error {} over budget",
                    s.error
                );
            }
        }
    }

    #[test]
    fn heap_matches_naive_reference() {
        let data: Vec<f64> = (0..257)
            .map(|i| (i as f64 * 0.13).sin() * 5.0 + if i % 11 == 0 { 2.0 } else { 0.0 })
            .collect();
        for budget in [0.0, 0.5, 3.0, f64::INFINITY] {
            assert_eq!(bottom_up(&data, budget), bottom_up_naive(&data, budget));
        }
        let cfg = SwabConfig {
            max_error: 1.5,
            buffer_len: 32,
        };
        assert_eq!(swab(&data, cfg), swab_naive(&data, cfg));
    }

    #[test]
    fn constant_series_matches_naive() {
        let data = vec![7.25; 97];
        assert_eq!(bottom_up(&data, 0.0), bottom_up_naive(&data, 0.0));
        assert_eq!(bottom_up(&data, 0.0).len(), 1);
    }

    #[test]
    fn tiny_inputs_match_naive() {
        for data in [
            vec![],
            vec![1.0],
            vec![1.0, 2.0],
            vec![1.0, 2.0, -4.0],
            vec![0.0, 0.0, 0.0],
        ] {
            for budget in [0.0, 1.0, f64::INFINITY] {
                assert_eq!(bottom_up(&data, budget), bottom_up_naive(&data, budget));
            }
        }
    }
}
