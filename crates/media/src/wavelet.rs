//! Reversible integer 2-D wavelet transforms.
//!
//! Two lifting-based filters, both exactly invertible over `i32`:
//!
//! * **Haar** (S-transform) — the simplest reversible filter,
//! * **CDF 5/3** (LeGall, the JPEG 2000 reversible filter) — better
//!   energy compaction on smooth content.
//!
//! Multi-level Mallat decomposition: each level transforms rows then
//! columns of the current LL band, leaving the standard quadrant layout
//! (LL top-left, HL top-right, LH bottom-left, HH bottom-right).
//!
//! Hot path: rows are lifted in place on their contiguous subslices,
//! and the column pass works on tiles of `TILE_COLS` columns gathered
//! into a contiguous buffer (one sequential read per image row instead
//! of a `width`-strided walk per column), lifted as rows, and scattered
//! back. All scratch lives in a caller-owned [`WaveletScratch`] so a
//! session encoding thousands of planes allocates once. Outputs are
//! bit-identical to the pre-refactor strided pass (`crate::reference`),
//! pinned by the differential suite in `tests/media_codec.rs`.

/// Filter choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaveletKind {
    /// Reversible Haar / S-transform.
    Haar,
    /// Reversible CDF 5/3 (LeGall) lifting filter.
    Cdf53,
}

/// Columns per gather tile in the blocked column pass. 32 columns of
/// `i32` is half a cache line short of 4 KiB per gathered row segment;
/// a full 512-row tile is 64 KiB — comfortably L2-resident.
const TILE_COLS: usize = 32;

/// Reusable scratch for the 2-D transforms: one line buffer for the
/// 1-D lifts plus the column-tile gather buffer. Construct once (or
/// take [`Default`]) and pass to the `_with` entry points; buffers
/// grow to the largest plane seen and are then reused allocation-free.
#[derive(Debug, Default)]
pub struct WaveletScratch {
    /// 1-D lift scratch; holds one row or column.
    line: Vec<i32>,
    /// Column-pass tile: up to [`TILE_COLS`] columns stored contiguously.
    tile: Vec<i32>,
}

impl WaveletScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> WaveletScratch {
        WaveletScratch::default()
    }

    /// Grow `line` to at least `n` elements and return it as a slice.
    fn line(&mut self, n: usize) -> &mut [i32] {
        if self.line.len() < n {
            self.line.resize(n, 0);
        }
        &mut self.line[..n]
    }
}

/// Largest level count such that every level sees even dimensions.
pub fn max_levels(width: usize, height: usize) -> usize {
    let mut levels = 0;
    let (mut w, mut h) = (width, height);
    while w >= 2 && h >= 2 && w % 2 == 0 && h % 2 == 0 {
        levels += 1;
        w /= 2;
        h /= 2;
    }
    levels
}

/// Forward 1-D lift on `buf` (length must be even): low-pass results in
/// the first half, high-pass in the second. `scratch` must be at least
/// `buf.len()` long; every element it uses is overwritten before read.
fn forward_1d(buf: &mut [i32], kind: WaveletKind, scratch: &mut [i32]) {
    let n = buf.len();
    debug_assert!(n.is_multiple_of(2) && n >= 2);
    let half = n / 2;
    let scratch = &mut scratch[..n];
    let (s, d) = scratch.split_at_mut(half);
    match kind {
        WaveletKind::Haar => {
            for i in 0..half {
                let a = buf[2 * i];
                let b = buf[2 * i + 1];
                let diff = b - a;
                d[i] = diff;
                s[i] = a + (diff >> 1);
            }
        }
        WaveletKind::Cdf53 => {
            // Predict: d[i] = x[2i+1] - floor((x[2i] + x[2i+2]) / 2)
            for i in 0..half {
                let left = buf[2 * i];
                let right = if 2 * i + 2 < n {
                    buf[2 * i + 2]
                } else {
                    buf[n - 2]
                };
                d[i] = buf[2 * i + 1] - ((left + right) >> 1);
            }
            // Update: s[i] = x[2i] + floor((d[i-1] + d[i] + 2) / 4)
            for i in 0..half {
                let dm1 = if i > 0 { d[i - 1] } else { d[0] };
                s[i] = buf[2 * i] + ((dm1 + d[i] + 2) >> 2);
            }
        }
    }
    buf.copy_from_slice(scratch);
}

/// Inverse of [`forward_1d`].
fn inverse_1d(buf: &mut [i32], kind: WaveletKind, scratch: &mut [i32]) {
    let n = buf.len();
    debug_assert!(n.is_multiple_of(2) && n >= 2);
    let half = n / 2;
    let scratch = &mut scratch[..n];
    let (s, d) = buf.split_at(half);
    match kind {
        WaveletKind::Haar => {
            for i in 0..half {
                let a = s[i] - (d[i] >> 1);
                let b = d[i] + a;
                scratch[2 * i] = a;
                scratch[2 * i + 1] = b;
            }
        }
        WaveletKind::Cdf53 => {
            // Undo update: x[2i] = s[i] - floor((d[i-1] + d[i] + 2)/4)
            for i in 0..half {
                let dm1 = if i > 0 { d[i - 1] } else { d[0] };
                scratch[2 * i] = s[i] - ((dm1 + d[i] + 2) >> 2);
            }
            // Undo predict: x[2i+1] = d[i] + floor((x[2i] + x[2i+2])/2)
            for i in 0..half {
                let left = scratch[2 * i];
                let right = if 2 * i + 2 < n {
                    scratch[2 * i + 2]
                } else {
                    scratch[n - 2]
                };
                scratch[2 * i + 1] = d[i] + ((left + right) >> 1);
            }
        }
    }
    buf.copy_from_slice(scratch);
}

/// Run `lift` over the first `h` entries of the first `w` columns of
/// `data`, a tile of [`TILE_COLS`] columns at a time: gather the tile
/// with sequential row reads, lift each column as a contiguous buffer,
/// scatter back. Equivalent to lifting each column in place through a
/// strided view, but every touch of `data` is a sequential row segment.
fn column_pass(
    data: &mut [i32],
    width: usize,
    w: usize,
    h: usize,
    kind: WaveletKind,
    scratch: &mut WaveletScratch,
    lift: fn(&mut [i32], WaveletKind, &mut [i32]),
) {
    if scratch.tile.len() < TILE_COLS * h {
        scratch.tile.resize(TILE_COLS * h, 0);
    }
    if scratch.line.len() < h {
        scratch.line.resize(h, 0);
    }
    let tile = &mut scratch.tile[..TILE_COLS * h];
    let line = &mut scratch.line[..];
    let mut x0 = 0;
    while x0 < w {
        let bw = TILE_COLS.min(w - x0);
        for y in 0..h {
            let row = &data[y * width + x0..y * width + x0 + bw];
            for (c, &v) in row.iter().enumerate() {
                tile[c * h + y] = v;
            }
        }
        for c in 0..bw {
            lift(&mut tile[c * h..c * h + h], kind, line);
        }
        for y in 0..h {
            let row = &mut data[y * width + x0..y * width + x0 + bw];
            for (c, v) in row.iter_mut().enumerate() {
                *v = tile[c * h + y];
            }
        }
        x0 += bw;
    }
}

/// In-place multi-level forward 2-D transform of a `width x height`
/// row-major plane.
///
/// # Panics
/// Panics if `levels > max_levels(width, height)`.
pub fn forward_2d(data: &mut [i32], width: usize, height: usize, levels: usize, kind: WaveletKind) {
    forward_2d_with(
        data,
        width,
        height,
        levels,
        kind,
        &mut WaveletScratch::new(),
    );
}

/// [`forward_2d`] with caller-owned scratch (the hot-path entry point:
/// no allocation once the scratch has seen the plane size).
pub fn forward_2d_with(
    data: &mut [i32],
    width: usize,
    height: usize,
    levels: usize,
    kind: WaveletKind,
    scratch: &mut WaveletScratch,
) {
    assert_eq!(data.len(), width * height);
    assert!(
        levels <= max_levels(width, height),
        "too many levels for {width}x{height}"
    );
    let (mut w, mut h) = (width, height);
    for _ in 0..levels {
        // Rows: lift each contiguous subslice in place.
        let line = scratch.line(w);
        for y in 0..h {
            forward_1d(&mut data[y * width..y * width + w], kind, line);
        }
        // Columns: blocked gather/lift/scatter.
        column_pass(data, width, w, h, kind, scratch, forward_1d);
        w /= 2;
        h /= 2;
    }
}

/// In-place multi-level inverse 2-D transform.
pub fn inverse_2d(data: &mut [i32], width: usize, height: usize, levels: usize, kind: WaveletKind) {
    inverse_2d_partial(data, width, height, levels, 0, kind);
}

/// [`inverse_2d`] with caller-owned scratch.
pub fn inverse_2d_with(
    data: &mut [i32],
    width: usize,
    height: usize,
    levels: usize,
    kind: WaveletKind,
    scratch: &mut WaveletScratch,
) {
    inverse_2d_partial_with(data, width, height, levels, 0, kind, scratch);
}

/// Partial inverse: undo only the coarsest `levels - drop_levels`
/// levels, leaving the finest `drop_levels` untouched. Afterwards the
/// top-left `(width >> drop_levels) x (height >> drop_levels)` region
/// holds a *reduced-resolution reconstruction* of the image — the
/// wavelet pyramid's free spatial scalability (§5.4: "each of the
/// users may access the same visual information but at different
/// resolutions").
pub fn inverse_2d_partial(
    data: &mut [i32],
    width: usize,
    height: usize,
    levels: usize,
    drop_levels: usize,
    kind: WaveletKind,
) {
    inverse_2d_partial_with(
        data,
        width,
        height,
        levels,
        drop_levels,
        kind,
        &mut WaveletScratch::new(),
    );
}

/// [`inverse_2d_partial`] with caller-owned scratch.
pub fn inverse_2d_partial_with(
    data: &mut [i32],
    width: usize,
    height: usize,
    levels: usize,
    drop_levels: usize,
    kind: WaveletKind,
    scratch: &mut WaveletScratch,
) {
    assert_eq!(data.len(), width * height);
    assert!(levels <= max_levels(width, height));
    assert!(drop_levels <= levels, "cannot drop more levels than exist");
    // Undo levels in reverse order: start from the coarsest.
    for level in (drop_levels..levels).rev() {
        let w = width >> level;
        let h = height >> level;
        // Columns first (reverse of forward order).
        column_pass(data, width, w, h, kind, scratch, inverse_1d);
        let line = scratch.line(w);
        for y in 0..h {
            inverse_1d(&mut data[y * width..y * width + w], kind, line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_plane(w: usize, h: usize, seed: u64) -> Vec<i32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..w * h).map(|_| rng.random_range(0..256)).collect()
    }

    #[test]
    fn max_levels_examples() {
        assert_eq!(max_levels(512, 512), 9);
        assert_eq!(max_levels(64, 32), 5);
        assert_eq!(max_levels(6, 6), 1);
        assert_eq!(max_levels(5, 8), 0);
        assert_eq!(max_levels(1, 1), 0);
    }

    #[test]
    fn perfect_reconstruction_all_kinds_and_levels() {
        for kind in [WaveletKind::Haar, WaveletKind::Cdf53] {
            for (w, h) in [(8, 8), (16, 8), (32, 32), (64, 16)] {
                let original = random_plane(w, h, 42);
                for levels in 1..=max_levels(w, h) {
                    let mut data = original.clone();
                    forward_2d(&mut data, w, h, levels, kind);
                    assert_ne!(data, original, "{kind:?} should change data");
                    inverse_2d(&mut data, w, h, levels, kind);
                    assert_eq!(data, original, "{kind:?} {w}x{h} levels={levels}");
                }
            }
        }
    }

    #[test]
    fn matches_reference_pass_exactly() {
        // The blocked column pass and in-place row lifts must be
        // bit-identical to the pre-refactor strided implementation,
        // including odd tile remainders (w not a multiple of TILE_COLS).
        let mut scratch = WaveletScratch::new();
        for kind in [WaveletKind::Haar, WaveletKind::Cdf53] {
            for (w, h) in [(8, 8), (16, 32), (64, 64), (96, 48), (40, 72)] {
                let original = random_plane(w, h, 7 + w as u64);
                for levels in 1..=max_levels(w, h).min(3) {
                    let mut fast = original.clone();
                    forward_2d_with(&mut fast, w, h, levels, kind, &mut scratch);
                    let mut slow = original.clone();
                    crate::reference::forward_2d(&mut slow, w, h, levels, kind);
                    assert_eq!(fast, slow, "forward {kind:?} {w}x{h} L{levels}");
                    let mut fast_inv = fast.clone();
                    inverse_2d_with(&mut fast_inv, w, h, levels, kind, &mut scratch);
                    let mut slow_inv = slow.clone();
                    crate::reference::inverse_2d(&mut slow_inv, w, h, levels, kind);
                    assert_eq!(fast_inv, slow_inv, "inverse {kind:?} {w}x{h} L{levels}");
                    assert_eq!(fast_inv, original);
                }
            }
        }
    }

    #[test]
    fn scratch_is_reusable_across_plane_sizes() {
        let mut scratch = WaveletScratch::new();
        for (w, h) in [(64, 64), (16, 16), (128, 32), (8, 8)] {
            let original = random_plane(w, h, 99);
            let mut data = original.clone();
            forward_2d_with(&mut data, w, h, 2, WaveletKind::Cdf53, &mut scratch);
            inverse_2d_with(&mut data, w, h, 2, WaveletKind::Cdf53, &mut scratch);
            assert_eq!(data, original, "{w}x{h} after scratch reuse");
        }
    }

    #[test]
    fn constant_signal_has_zero_detail() {
        for kind in [WaveletKind::Haar, WaveletKind::Cdf53] {
            let mut data = vec![100i32; 16 * 16];
            forward_2d(&mut data, 16, 16, 2, kind);
            // All coefficients outside the 4x4 LL band must be zero.
            for y in 0..16 {
                for x in 0..16 {
                    if x >= 4 || y >= 4 {
                        assert_eq!(data[y * 16 + x], 0, "{kind:?} detail at ({x},{y})");
                    }
                }
            }
        }
    }

    #[test]
    fn smooth_gradient_compacts_energy_into_ll() {
        // CDF 5/3 should leave a linear ramp almost entirely in LL.
        let w = 32;
        let mut data: Vec<i32> = (0..w * w).map(|i| (i % w) as i32 * 4).collect();
        forward_2d(&mut data, w, w, 3, WaveletKind::Cdf53);
        // In the transformed domain, the 4x4 LL band should dominate:
        // detail coefficients of a linear ramp are (near) zero under
        // the 5/3 filter, whose predictor is exact for linear signals.
        let mut ll_energy = 0i64;
        let mut detail_energy = 0i64;
        for y in 0..w {
            for x in 0..w {
                let e = (data[y * w + x] as i64).pow(2);
                if x < 4 && y < 4 {
                    ll_energy += e;
                } else {
                    detail_energy += e;
                }
            }
        }
        assert!(
            (ll_energy as f64) > 20.0 * detail_energy as f64,
            "LL {} should dwarf detail {}",
            ll_energy,
            detail_energy
        );
    }

    #[test]
    #[should_panic(expected = "too many levels")]
    fn rejects_excess_levels() {
        let mut data = vec![0i32; 8 * 8];
        forward_2d(&mut data, 8, 8, 4, WaveletKind::Haar);
    }

    #[test]
    fn partial_inverse_yields_reduced_resolution_image() {
        // Reconstructing with one level dropped approximates the 2x
        // box-downsampled original (exactly, for Haar, up to the
        // integer-lifting floor).
        let w = 32;
        let original: Vec<i32> = (0..w * w)
            .map(|i| (((i % w) * 8 + (i / w) * 3) % 256) as i32)
            .collect();
        let mut data = original.clone();
        forward_2d(&mut data, w, w, 3, WaveletKind::Haar);
        inverse_2d_partial(&mut data, w, w, 3, 1, WaveletKind::Haar);
        // Top-left 16x16 holds the half-resolution image.
        let half = w / 2;
        let mut max_err = 0i32;
        for y in 0..half {
            for x in 0..half {
                let avg = (original[(2 * y) * w + 2 * x]
                    + original[(2 * y) * w + 2 * x + 1]
                    + original[(2 * y + 1) * w + 2 * x]
                    + original[(2 * y + 1) * w + 2 * x + 1])
                    / 4;
                let got = data[y * w + x];
                max_err = max_err.max((got - avg).abs());
            }
        }
        assert!(max_err <= 2, "half-res ~= box average, max err {max_err}");
    }

    #[test]
    fn partial_inverse_with_zero_drop_is_full_inverse() {
        let original: Vec<i32> = (0..16 * 16).map(|i| i * 7 % 251).collect();
        let mut a = original.clone();
        forward_2d(&mut a, 16, 16, 2, WaveletKind::Cdf53);
        inverse_2d_partial(&mut a, 16, 16, 2, 0, WaveletKind::Cdf53);
        assert_eq!(a, original);
    }

    #[test]
    #[should_panic(expected = "cannot drop more levels")]
    fn partial_inverse_rejects_excess_drop() {
        let mut data = vec![0i32; 8 * 8];
        inverse_2d_partial(&mut data, 8, 8, 2, 3, WaveletKind::Haar);
    }

    #[test]
    fn one_dimensional_round_trip_odd_boundaries() {
        // Exercise the CDF 5/3 boundary mirror with small even lengths.
        let mut scratch = vec![0i32; 16];
        for n in [2usize, 4, 6, 10] {
            let original: Vec<i32> = (0..n as i32).map(|i| i * 7 - 3).collect();
            let mut buf = original.clone();
            forward_1d(&mut buf, WaveletKind::Cdf53, &mut scratch);
            inverse_1d(&mut buf, WaveletKind::Cdf53, &mut scratch);
            assert_eq!(buf, original, "n={n}");
        }
    }
}
