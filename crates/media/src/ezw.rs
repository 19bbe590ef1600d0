//! Embedded zerotree wavelet (EZW) coding, after Shapiro (the paper's
//! reference \[23\]).
//!
//! The encoder emits bit-planes most-significant first. Each plane has
//! a **dominant pass** — coefficients not yet significant are coded
//! with a context-dependent prefix-free alphabet (zerotree root /
//! isolated zero / significant-positive / significant-negative) — and a
//! **subordinate pass** refining the magnitudes of previously
//! significant coefficients by one bit. The result is a fully
//! *embedded* stream: decoding any prefix yields a coarser but complete
//! reconstruction, which is exactly the property the paper's image
//! viewer exploits when the inference engine limits it to 1–16 packets.
//!
//! The zerotree structure uses Shapiro's parent–child relation on the
//! Mallat quadrant layout: each coarsest-LL coefficient parents the
//! co-located HL/LH/HH coefficients, and every detail coefficient
//! parents the 2×2 block at the next finer level.
//!
//! ## Fast path
//!
//! The wire format is pinned bit-identical to the pre-refactor coder
//! (`crate::reference`, differential suite in `tests/media_codec.rs`),
//! but the hot path is list-driven in the SPIHT style:
//!
//! * the dominant pass walks an explicit **candidate list** of
//!   still-insignificant coefficients (with magnitude, subtree max,
//!   sign, and child flags cached per entry) instead of re-scanning
//!   the full subband order and branch-skipping the already-significant
//!   majority every bit-plane; coefficients leave the list the moment
//!   they become significant,
//! * zerotree descendants are stamped through a reusable work stack —
//!   no per-root allocation,
//! * [`BitWriter`]/[`BitReader`] move whole symbols through a 64-bit
//!   accumulator (`push_bits`) instead of one bounds-checked byte poke
//!   per bit,
//! * all per-plane state (lists, stamps, the scan-order geometry)
//!   lives in a caller-owned [`EzwScratch`], so a session encoding a
//!   stream of planes allocates nothing after warm-up.

use crate::image::Image;
use crate::wavelet::{self, WaveletKind, WaveletScratch};
use crate::MediaError;

/// Per-plane stream magic.
pub(crate) const PLANE_MAGIC: &[u8; 4] = b"EZP1";
/// Image container magic.
const CONTAINER_MAGIC: &[u8; 4] = b"EZC1";
/// Sentinel for an all-zero plane (no bit data follows).
pub(crate) const EMPTY_PLANE: u8 = 0xFF;
/// Plane header size: magic + w + h + levels + top_plane.
pub const PLANE_HEADER_LEN: usize = 4 + 2 + 2 + 1 + 1;
/// Container header size: magic + channels + kind byte.
pub const CONTAINER_HEADER_LEN: usize = 4 + 1 + 1;

// ---------------------------------------------------------------- bits

/// MSB-first bit writer batching through a 64-bit accumulator.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits, right-aligned; `nacc < 64` between calls.
    acc: u64,
    nacc: u32,
    nbits: usize,
}

impl BitWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        self.push_bits(bit as u32, 1);
    }

    /// Append the low `n` bits of `pattern` (`n <= 32`), most
    /// significant first — `push_bits(0b110, 3)` is `push(true);
    /// push(true); push(false)`.
    #[inline]
    pub fn push_bits(&mut self, pattern: u32, n: u32) {
        debug_assert!(n <= 32);
        debug_assert!(n == 32 || pattern < (1u32 << n));
        let free = 64 - self.nacc;
        if n > free {
            // Top up the accumulator, flush it whole, keep the rest.
            let spill = n - free;
            self.acc = (self.acc << free) | (pattern >> spill) as u64;
            self.bytes.extend_from_slice(&self.acc.to_be_bytes());
            self.acc = pattern as u64 & ((1u64 << spill) - 1);
            self.nacc = spill;
        } else {
            self.acc = (self.acc << n) | pattern as u64;
            self.nacc += n;
            if self.nacc == 64 {
                self.bytes.extend_from_slice(&self.acc.to_be_bytes());
                self.acc = 0;
                self.nacc = 0;
            }
        }
        self.nbits += n as usize;
    }

    /// Total bits written.
    pub fn len_bits(&self) -> usize {
        self.nbits
    }

    /// Finish, returning the packed bytes (zero-padded to a byte
    /// boundary, exactly like the pre-refactor writer).
    pub fn into_bytes(mut self) -> Vec<u8> {
        let pad = (8 - self.nacc % 8) % 8;
        self.acc <<= pad;
        self.nacc += pad;
        while self.nacc >= 8 {
            self.nacc -= 8;
            self.bytes.push((self.acc >> self.nacc) as u8);
        }
        self.bytes
    }
}

/// MSB-first bit reader; `None` when exhausted. Refills a 64-bit
/// accumulator eight bytes at a time.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next byte to load into the accumulator.
    byte_pos: usize,
    acc: u64,
    nacc: u32,
}

impl<'a> BitReader<'a> {
    /// Read over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            byte_pos: 0,
            acc: 0,
            nacc: 0,
        }
    }

    /// Next bit, or `None` at end of data.
    #[allow(clippy::should_implement_trait)] // not an Iterator: no fused/size semantics
    #[inline]
    pub fn next(&mut self) -> Option<bool> {
        if self.nacc == 0 {
            let rem = self.bytes.len() - self.byte_pos;
            if rem >= 8 {
                self.acc = u64::from_be_bytes(
                    self.bytes[self.byte_pos..self.byte_pos + 8]
                        .try_into()
                        .expect("8 bytes"),
                );
                self.nacc = 64;
                self.byte_pos += 8;
            } else if rem > 0 {
                self.acc = 0;
                for &b in &self.bytes[self.byte_pos..] {
                    self.acc = (self.acc << 8) | b as u64;
                }
                self.nacc = rem as u32 * 8;
                self.byte_pos = self.bytes.len();
            } else {
                return None;
            }
        }
        self.nacc -= 1;
        Some((self.acc >> self.nacc) & 1 != 0)
    }
}

// ------------------------------------------------------------ geometry

/// Scan/tree geometry shared by encoder and decoder.
struct Geometry {
    w: usize,
    h: usize,
    levels: usize,
    /// Subband-ordered scan (coarse to fine), as linear indices.
    scan: Vec<u32>,
    /// Inverse of `scan`: the scan position of each linear index.
    rank: Vec<u32>,
}

impl Geometry {
    fn new(w: usize, h: usize, levels: usize) -> Geometry {
        assert!(levels >= 1 && levels <= wavelet::max_levels(w, h));
        let mut scan = Vec::with_capacity(w * h);
        let (wl, hl) = (w >> levels, h >> levels);
        for y in 0..hl {
            for x in 0..wl {
                scan.push((y * w + x) as u32);
            }
        }
        for l in (1..=levels).rev() {
            let (wb, hb) = (w >> l, h >> l);
            // HL (top-right), LH (bottom-left), HH (bottom-right).
            for y in 0..hb {
                for x in wb..2 * wb {
                    scan.push((y * w + x) as u32);
                }
            }
            for y in hb..2 * hb {
                for x in 0..wb {
                    scan.push((y * w + x) as u32);
                }
            }
            for y in hb..2 * hb {
                for x in wb..2 * wb {
                    scan.push((y * w + x) as u32);
                }
            }
        }
        debug_assert_eq!(scan.len(), w * h);
        let mut rank = vec![0u32; w * h];
        for (r, &idx) in scan.iter().enumerate() {
            rank[idx as usize] = r as u32;
        }
        Geometry {
            w,
            h,
            levels,
            scan,
            rank,
        }
    }

    /// Children of the coefficient at linear index `idx` (0 to 4).
    fn children(&self, idx: usize, out: &mut [usize; 4]) -> usize {
        let (x, y) = (idx % self.w, idx / self.w);
        let (wl, hl) = (self.w >> self.levels, self.h >> self.levels);
        if x < wl && y < hl {
            // Coarsest LL: parents the co-located HL/LH/HH coefficients.
            out[0] = y * self.w + (x + wl);
            out[1] = (y + hl) * self.w + x;
            out[2] = (y + hl) * self.w + (x + wl);
            3
        } else if 2 * x < self.w && 2 * y < self.h {
            out[0] = 2 * y * self.w + 2 * x;
            out[1] = 2 * y * self.w + 2 * x + 1;
            out[2] = (2 * y + 1) * self.w + 2 * x;
            out[3] = (2 * y + 1) * self.w + 2 * x + 1;
            4
        } else {
            0
        }
    }

    fn has_children(&self, idx: usize) -> bool {
        let mut buf = [0usize; 4];
        self.children(idx, &mut buf) > 0
    }

    /// Mark every descendant of `idx` with `stamp`, using the caller's
    /// `work` stack (cleared here) instead of a per-root allocation.
    ///
    /// The production passes no longer stamp at all — they exploit the
    /// fact that subtree maxima are monotone down the tree, so "inside
    /// a zerotree at threshold t" reduces to the static test
    /// `subtree_max[parent] < t` (encoder) or to spawn-on-first-
    /// non-ZTR (decoder). This method survives as the executable
    /// definition of zerotree cover the equivalence tests pin the fast
    /// rules against.
    #[cfg(test)]
    fn stamp_descendants(&self, idx: usize, stamp: u32, stamps: &mut [u32], work: &mut Vec<u32>) {
        work.clear();
        let mut kids = [0usize; 4];
        let n = self.children(idx, &mut kids);
        work.extend(kids[..n].iter().map(|&k| k as u32));
        while let Some(i) = work.pop() {
            let i = i as usize;
            if stamps[i] == stamp {
                continue;
            }
            stamps[i] = stamp;
            let n = self.children(i, &mut kids);
            work.extend(kids[..n].iter().map(|&k| k as u32));
        }
    }
}

// ------------------------------------------------------------- scratch

// Encoder candidates are single `u64`s — the dominant pass only ever
// *compares* magnitudes against the threshold, so the bit positions of
// |coeff| and the subtree max suffice:
//
// ```text
// 63..32: scan rank (merge key: plain u64 `<` orders by scan position)
// 23..16: 32 + msb(|coeff|), or 0 when the coefficient is zero
// 15..8:  32 + msb(subtree max), or 0 when the subtree is all zero
// bit 1:  has children
// bit 0:  sign (negative)
// ```
//
// `|coeff| >= 1 << b` becomes `magbit >= 32 + b`, a masked compare;
// the +32 bias keeps the zero encoding unambiguous. Halving the entry
// to 8 bytes halves the per-pass survivor-copy traffic, the encoder's
// main memory cost.
const CAND_MAG_MASK: u64 = 0xFF << 16;
const CAND_SMAX_MASK: u64 = 0xFF << 8;
const CAND_KIDS: u64 = 1 << 1;
const CAND_NEG: u64 = 1;

/// `32 + msb(v)` biased bit position (0 for `v == 0`), shifted into
/// the field at `shift`. Branchless — half the coefficients of a
/// transformed plane are zero, which would make an `if` here a
/// steady stream of mispredictions during bucket fill.
#[inline]
fn bitpos_field(v: u32, shift: u32) -> u64 {
    let biased = (63 - v.leading_zeros()) as u64; // 31 for v == 0
    let nonzero_mask = ((v != 0) as u64).wrapping_neg();
    (biased & nonzero_mask) << shift
}

const FLAG_KIDS: u8 = 2;
/// Decoder-side: this entry has already spawned its children.
const FLAG_SPAWNED: u8 = 4;

/// One decoder candidate: scan rank, index, and child/spawned flags
/// (magnitudes are unknown until the bits say so).
#[derive(Clone, Copy)]
struct DecCand {
    rank: u32,
    idx: u32,
    flags: u8,
}

/// Reusable per-plane coder state: candidate lists, activation
/// buckets, the subordinate list, and a cached `Geometry` (rebuilt
/// only when the plane shape changes). Shared by
/// [`EzwEncoder::encode_plane_with`] and
/// [`EzwDecoder::decode_plane_with`]; a default-constructed scratch is
/// used transparently by the plain entry points.
#[derive(Default)]
pub struct EzwScratch {
    geo: Option<Geometry>,
    /// Encoder: max `|coeff|` over each subtree.
    subtree_max: Vec<u32>,
    /// Encoder: each node's activation pass (the pass its parent's
    /// subtree max first meets the threshold; 0 for parentless nodes,
    /// 255 for never-coded all-zero subtrees).
    act: Vec<u8>,
    /// Decoder: indices significant in an earlier pass, in order.
    sub_list: Vec<u32>,
    /// Encoder: magnitudes of significant coefficients, in
    /// significance order — the subordinate pass reads it sequentially
    /// (the refinement bit never needs the index, only the magnitude).
    sub_mags: Vec<u32>,
    /// Encoder: `|coeff|` by scan rank, so the dominant pass recovers
    /// a magnitude from a packed candidate with one ordered read.
    mag_rank: Vec<u32>,
    /// Encoder: live packed candidates, rank-sorted (double-buffered,
    /// `u64::MAX`-sentinel-terminated for the branchless merge).
    cands: Vec<u64>,
    cands_next: Vec<u64>,
    /// Encoder: packed candidates bucketed by activation pass
    /// (`bucket_off[p]..bucket_off[p + 1]`, rank-sorted within each,
    /// each bucket followed by a `u64::MAX` sentinel slot).
    buckets: Vec<u64>,
    bucket_off: Vec<usize>,
    bucket_cur: Vec<usize>,
    /// Decoder: live candidates, sorted by scan rank (double-buffered).
    lip: Vec<DecCand>,
    lip_next: Vec<DecCand>,
    /// Decoder: children activated mid-pass, merged in by scan rank.
    spawn_heap: std::collections::BinaryHeap<std::cmp::Reverse<u64>>,
    /// Decoder magnitudes.
    mags: Vec<u32>,
    /// Decoder signs.
    negs: Vec<bool>,
}

impl EzwScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> EzwScratch {
        EzwScratch::default()
    }

    /// The geometry for `w x h x levels`, rebuilding only on change.
    fn geometry(&mut self, w: usize, h: usize, levels: usize) -> &Geometry {
        let stale = !matches!(&self.geo, Some(g) if g.w == w && g.h == h && g.levels == levels);
        if stale {
            self.geo = Some(Geometry::new(w, h, levels));
        }
        self.geo.as_ref().expect("just built")
    }
}

// -------------------------------------------------------------- encode

/// Encode a wavelet-transformed plane into a fully embedded stream.
pub struct EzwEncoder;

impl EzwEncoder {
    /// Encode `coeffs` (a `w x h` plane already wavelet-transformed
    /// with `levels` levels). The returned bytes are
    /// [`PLANE_HEADER_LEN`] of header followed by the embedded
    /// bitstream down to bit-plane 0.
    pub fn encode_plane(coeffs: &[i32], w: usize, h: usize, levels: usize) -> Vec<u8> {
        Self::encode_plane_with(coeffs, w, h, levels, &mut EzwScratch::new())
    }

    /// [`EzwEncoder::encode_plane`] with caller-owned scratch — the
    /// allocation-free hot path (only the output stream is allocated).
    pub fn encode_plane_with(
        coeffs: &[i32],
        w: usize,
        h: usize,
        levels: usize,
        scratch: &mut EzwScratch,
    ) -> Vec<u8> {
        assert_eq!(coeffs.len(), w * h);
        let n = coeffs.len();
        let max_mag = coeffs.iter().map(|c| c.unsigned_abs()).max().unwrap_or(0);

        let mut out = Vec::new();
        out.extend_from_slice(PLANE_MAGIC);
        out.extend_from_slice(&(w as u16).to_be_bytes());
        out.extend_from_slice(&(h as u16).to_be_bytes());
        out.push(levels as u8);
        if max_mag == 0 {
            out.push(EMPTY_PLANE);
            return out;
        }
        let top_plane = 31 - max_mag.leading_zeros();
        out.push(top_plane as u8);

        // The encoder never touches the explicit tree: the band loops
        // below regenerate the scan, and the packed candidates carry
        // everything the passes need. (Only the decoder builds a
        // `Geometry`.)
        let (wl, hl) = (w >> levels, h >> levels);
        // Parent region of the (2x, 2y) child map: the top-left
        // quadrant, minus the coarsest LL (which parents the three
        // co-located coarsest bands instead).
        let (wp, hp) = (w.div_ceil(2), h.div_ceil(2));

        // Static max |coeff| over self + descendants. A descending
        // sweep over the parent quadrant visits every child block
        // before its parent row — no per-node child enumeration, no
        // scan indirection, no divisions.
        let smax = &mut scratch.subtree_max;
        smax.clear();
        smax.extend(coeffs.iter().map(|c| c.unsigned_abs()));
        for y in (0..hp).rev() {
            let row = y * w;
            let crow = 2 * y * w;
            let x0 = if y < hl { wl } else { 0 };
            for x in (x0..wp).rev() {
                let c0 = crow + 2 * x;
                let m = smax[c0]
                    .max(smax[c0 + 1])
                    .max(smax[c0 + w])
                    .max(smax[c0 + w + 1]);
                if m > smax[row + x] {
                    smax[row + x] = m;
                }
            }
        }
        for y in (0..hl).rev() {
            let row = y * w;
            let brow = (y + hl) * w;
            for x in (0..wl).rev() {
                let m = smax[row + x + wl]
                    .max(smax[brow + x])
                    .max(smax[brow + x + wl]);
                if m > smax[row + x] {
                    smax[row + x] = m;
                }
            }
        }

        // The zerotree-cover bound: subtree maxima are monotone down
        // the tree, so "some strict ancestor is a zerotree root at
        // threshold t" collapses to `subtree_max[parent] < t`. That
        // makes each coefficient's first coded pass *static* — the
        // pass where t first drops to its parent's subtree max.
        // Parentless nodes (coarsest LL) are live from pass 0; an
        // all-zero parent subtree means never coded (sentinel 255).
        let top_pass = |sm: u32| top_plane - (31 - sm.leading_zeros()).min(top_plane);
        let act = &mut scratch.act;
        act.clear();
        act.resize(n, 0u8);
        for y in 0..hp {
            let row = y * w;
            let crow = 2 * y * w;
            let x0 = if y < hl { wl } else { 0 };
            for x in x0..wp {
                let sm = smax[row + x];
                let p = if sm == 0 { 255 } else { top_pass(sm) as u8 };
                let c0 = crow + 2 * x;
                act[c0] = p;
                act[c0 + 1] = p;
                act[c0 + w] = p;
                act[c0 + w + 1] = p;
            }
        }
        for y in 0..hl {
            let row = y * w;
            let brow = (y + hl) * w;
            for x in 0..wl {
                let sm = smax[row + x];
                let p = if sm == 0 { 255 } else { top_pass(sm) as u8 };
                act[row + x + wl] = p;
                act[brow + x] = p;
                act[brow + x + wl] = p;
            }
        }

        // Bucket every coded coefficient by activation pass: a counting
        // sort in scan order, so each bucket is rank-sorted. The scan
        // is regenerated band-by-band here (same order as
        // `Geometry::new`) to get coordinates — and thus the
        // has-children test — without divisions. Each bucket keeps a
        // trailing `u64::MAX` sentinel slot so the dominant pass can
        // merge without bounds branches.
        let nb = top_plane as usize + 1;
        let bucket_off = &mut scratch.bucket_off;
        bucket_off.clear();
        bucket_off.resize(nb + 1, 0usize);
        for &a in act.iter() {
            if (a as usize) < nb {
                bucket_off[a as usize] += 1;
            }
        }
        let mut total = 0usize;
        for (p, off) in bucket_off.iter_mut().enumerate() {
            let c = *off;
            // Shift pass p's span by p: one sentinel slot per bucket.
            *off = total + p;
            total += c;
        }
        let buckets = &mut scratch.buckets;
        buckets.clear();
        buckets.resize(total + nb, u64::MAX);
        let cursor = &mut scratch.bucket_cur;
        cursor.clear();
        cursor.extend_from_slice(bucket_off);
        let mag_rank = &mut scratch.mag_rank;
        mag_rank.clear();
        mag_rank.resize(n, 0);
        let mut r: u32 = 0;
        let place = |idx: usize,
                     has_kids: bool,
                     r: u32,
                     buckets: &mut [u64],
                     cursor: &mut [usize],
                     mag_rank: &mut [u32]| {
            let c = coeffs[idx];
            mag_rank[r as usize] = c.unsigned_abs();
            let a = act[idx] as usize;
            if a < nb {
                let packed = ((r as u64) << 32)
                    | bitpos_field(c.unsigned_abs(), 16)
                    | bitpos_field(smax[idx], 8)
                    | ((has_kids as u64) << 1)
                    | ((c < 0) as u64);
                buckets[cursor[a]] = packed;
                cursor[a] += 1;
            }
        };
        for y in 0..hl {
            for x in 0..wl {
                place(y * w + x, true, r, buckets, cursor, mag_rank);
                r += 1;
            }
        }
        for l in (1..=levels).rev() {
            let (wb, hb) = (w >> l, h >> l);
            for y in 0..hb {
                for x in wb..2 * wb {
                    place(
                        y * w + x,
                        2 * x < w && 2 * y < h,
                        r,
                        buckets,
                        cursor,
                        mag_rank,
                    );
                    r += 1;
                }
            }
            for y in hb..2 * hb {
                for x in 0..wb {
                    place(
                        y * w + x,
                        2 * x < w && 2 * y < h,
                        r,
                        buckets,
                        cursor,
                        mag_rank,
                    );
                    r += 1;
                }
            }
            for y in hb..2 * hb {
                for x in wb..2 * wb {
                    place(
                        y * w + x,
                        2 * x < w && 2 * y < h,
                        r,
                        buckets,
                        cursor,
                        mag_rank,
                    );
                    r += 1;
                }
            }
        }
        debug_assert_eq!(r as usize, n);

        let sub = &mut scratch.sub_mags;
        sub.clear();
        sub.resize(n + 1, 0);
        let mut nsub = 0usize;
        let cands = &mut scratch.cands;
        cands.clear();
        cands.resize(n + 1, 0);
        let next = &mut scratch.cands_next;
        next.clear();
        next.resize(n + 1, 0);
        let mut nlive = 0usize;

        let mut bits = BitWriter::new();
        for b in (0..=top_plane).rev() {
            let tb_mag = ((32 + b) as u64) << 16;
            let tb_smax = ((32 + b) as u64) << 8;
            let refine_count = nsub;
            // Dominant pass: merge the live list with this plane's
            // newly-activated bucket (both rank-sorted), emitting in
            // scan order and keeping only still-insignificant entries.
            // Exactly the coefficients the stamp-based coder would
            // visit are visited — everything under a zerotree root
            // stays untouched. The body is branchless: sentinel-
            // terminated merge, and the four symbols collapse to
            // `pattern = (1 << len) - 2 + sign` (0; 10; 10|s; 110|s),
            // because significance is ~50/50 in the busy passes and a
            // data-dependent branch would stall on every other entry.
            let p = (top_plane - b) as usize;
            let fresh = &buckets[bucket_off[p]..bucket_off[p + 1]];
            let nfresh = fresh.len() - 1;
            cands[nlive] = u64::MAX;
            let (mut ai, mut fi, mut wi) = (0usize, 0usize, 0usize);
            for _ in 0..nlive + nfresh {
                // Rank sits in the high bits, so a plain u64 compare
                // merges by scan position (cmov, not a branch).
                let a = cands[ai];
                let f = fresh[fi];
                let from_live = a < f;
                let cand = if from_live { a } else { f };
                ai += from_live as usize;
                fi += !from_live as usize;

                let sig = cand & CAND_MAG_MASK >= tb_mag;
                let kids = cand & CAND_KIDS != 0;
                let iz_or_sig = sig | (kids & (cand & CAND_SMAX_MASK >= tb_smax));
                let len = 1 + iz_or_sig as u32 + (sig & kids) as u32;
                let neg = (cand & CAND_NEG) as u32 & sig as u32;
                bits.push_bits((1u32 << len) - 2 + neg, len);

                next[wi] = cand;
                wi += !sig as usize;
                sub[nsub] = mag_rank[(cand >> 32) as usize];
                nsub += sig as usize;
            }
            std::mem::swap(cands, next);
            nlive = wi;
            // Subordinate pass: one refinement bit for coefficients
            // significant before this plane, magnitudes read inline.
            for &mag in &sub[..refine_count] {
                bits.push_bits((mag >> b) & 1, 1);
            }
        }
        out.extend_from_slice(&bits.into_bytes());
        out
    }
}

/// Decode an embedded plane stream (possibly truncated anywhere past
/// the header).
pub struct EzwDecoder;

/// A decoded plane plus its geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedPlane {
    /// Width in samples.
    pub w: usize,
    /// Height in samples.
    pub h: usize,
    /// Wavelet levels the plane was coded with.
    pub levels: usize,
    /// Reconstructed coefficients (still in the wavelet domain).
    pub coeffs: Vec<i32>,
}

impl EzwDecoder {
    /// Decode as much of `bytes` as is present.
    pub fn decode_plane(bytes: &[u8]) -> Result<DecodedPlane, MediaError> {
        Self::decode_plane_with(bytes, &mut EzwScratch::new())
    }

    /// [`EzwDecoder::decode_plane`] with caller-owned scratch.
    pub fn decode_plane_with(
        bytes: &[u8],
        scratch: &mut EzwScratch,
    ) -> Result<DecodedPlane, MediaError> {
        if bytes.len() < PLANE_HEADER_LEN || &bytes[..4] != PLANE_MAGIC {
            return Err(MediaError::Malformed("bad plane header"));
        }
        let w = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
        let h = u16::from_be_bytes([bytes[6], bytes[7]]) as usize;
        let levels = bytes[8] as usize;
        let top = bytes[9];
        if w == 0 || h == 0 || levels == 0 || levels > wavelet::max_levels(w, h) {
            return Err(MediaError::Malformed("bad plane geometry"));
        }
        let n = w * h;
        let mut coeffs = vec![0i32; n];
        if top == EMPTY_PLANE {
            return Ok(DecodedPlane {
                w,
                h,
                levels,
                coeffs,
            });
        }
        let top_plane = top as u32;
        if top_plane > 31 {
            return Err(MediaError::Malformed("bad top plane"));
        }
        scratch.geometry(w, h, levels);
        let geo = scratch.geo.as_ref().expect("geometry cached");
        let mut bits = BitReader::new(&bytes[PLANE_HEADER_LEN..]);

        let mags = &mut scratch.mags;
        mags.clear();
        mags.resize(n, 0);
        let negs = &mut scratch.negs;
        negs.clear();
        negs.resize(n, false);
        let sub_list = &mut scratch.sub_list;
        sub_list.clear();

        // The live list starts at the parentless coarsest-LL nodes and
        // grows by *spawning*: the first time a parent codes a non-ZTR
        // symbol its children join the list. Spawned children are held
        // in a min-heap of (scan rank, index) and merged into the same
        // pass — a parent always precedes its children in scan order,
        // which is exactly when the encoder's activation buckets admit
        // them. Everything under a zerotree root stays untouched, so no
        // skip stamps are needed.
        let (wl, hl) = (w >> levels, h >> levels);
        let lip = &mut scratch.lip;
        lip.clear();
        for (r, &idx) in geo.scan[..wl * hl].iter().enumerate() {
            let mut flags = 0u8;
            if geo.has_children(idx as usize) {
                flags |= FLAG_KIDS;
            }
            lip.push(DecCand {
                rank: r as u32,
                idx,
                flags,
            });
        }
        let next = &mut scratch.lip_next;
        let heap = &mut scratch.spawn_heap;
        heap.clear();
        let mut kids = [0usize; 4];

        // Offset plane used to centre the uncertainty interval if the
        // stream is truncated at plane `b`: [mag, mag + 2^b).
        let mut current_plane = top_plane;
        let mut finished = true;

        'outer: for b in (0..=top_plane).rev() {
            current_plane = b;
            let t = 1u32 << b;
            let refine_count = sub_list.len();
            next.clear();
            let mut ai = 0usize;
            loop {
                // Take whichever of the live list and the spawn heap
                // holds the lowest scan rank next.
                let heap_rank = heap.peek().map(|r| (r.0 >> 32) as u32);
                let take_heap = match (ai < lip.len(), heap_rank) {
                    (true, Some(hr)) => hr < lip[ai].rank,
                    (true, None) => false,
                    (false, Some(_)) => true,
                    (false, None) => break,
                };
                let mut cand = if take_heap {
                    let packed = heap.pop().expect("peeked").0;
                    let idx = packed as u32;
                    // A fresh child has not spawned its *own* children
                    // yet — FLAG_SPAWNED is only set once it does.
                    let mut flags = 0u8;
                    if geo.has_children(idx as usize) {
                        flags |= FLAG_KIDS;
                    }
                    DecCand {
                        rank: (packed >> 32) as u32,
                        idx,
                        flags,
                    }
                } else {
                    ai += 1;
                    lip[ai - 1]
                };
                let idx = cand.idx as usize;
                let Some(first) = bits.next() else {
                    finished = false;
                    break 'outer;
                };
                if cand.flags & FLAG_KIDS != 0 {
                    if !first {
                        // Zerotree root: children stay dormant.
                        next.push(cand);
                        continue;
                    }
                    // Non-ZTR parent: its children activate this pass.
                    if cand.flags & FLAG_SPAWNED == 0 {
                        cand.flags |= FLAG_SPAWNED;
                        let nk = geo.children(idx, &mut kids);
                        for &k in &kids[..nk] {
                            heap.push(std::cmp::Reverse((geo.rank[k] as u64) << 32 | k as u64));
                        }
                    }
                    let Some(second) = bits.next() else {
                        finished = false;
                        break 'outer;
                    };
                    if !second {
                        next.push(cand);
                        continue; // isolated zero
                    }
                    let Some(sign) = bits.next() else {
                        finished = false;
                        break 'outer;
                    };
                    mags[idx] = t;
                    negs[idx] = sign;
                    sub_list.push(cand.idx);
                } else {
                    if !first {
                        next.push(cand);
                        continue;
                    }
                    let Some(sign) = bits.next() else {
                        finished = false;
                        break 'outer;
                    };
                    mags[idx] = t;
                    negs[idx] = sign;
                    sub_list.push(cand.idx);
                }
            }
            std::mem::swap(lip, next);
            for &idx in &sub_list[..refine_count] {
                let Some(bit) = bits.next() else {
                    finished = false;
                    break 'outer;
                };
                if bit {
                    mags[idx as usize] |= t;
                }
            }
        }

        let offset = if finished {
            0
        } else {
            (1u32 << current_plane) >> 1
        };
        for idx in 0..coeffs.len() {
            if mags[idx] != 0 {
                let v = (mags[idx] + offset) as i32;
                coeffs[idx] = if negs[idx] { -v } else { v };
            }
        }
        Ok(DecodedPlane {
            w,
            h,
            levels,
            coeffs,
        })
    }
}

// ----------------------------------------------------------- container

/// Kind byte for the container header; bit 7 flags YCoCg-R color
/// decorrelation.
const COLOR_TRANSFORM_FLAG: u8 = 0x80;

fn kind_to_byte(k: WaveletKind) -> u8 {
    match k {
        WaveletKind::Haar => 0,
        WaveletKind::Cdf53 => 1,
    }
}

fn kind_from_byte(b: u8) -> Result<(WaveletKind, bool), MediaError> {
    let color = b & COLOR_TRANSFORM_FLAG != 0;
    match b & !COLOR_TRANSFORM_FLAG {
        0 => Ok((WaveletKind::Haar, color)),
        1 => Ok((WaveletKind::Cdf53, color)),
        _ => Err(MediaError::Malformed("bad wavelet kind")),
    }
}

/// Extract the coder-input planes of `img`: level-shifted to signed
/// and, when `color_transform` is set (3-channel images only),
/// YCoCg-R-decorrelated with the luma plane shifted. These are the
/// per-channel inputs [`encode_prepared_plane`] expects — split out so
/// callers (e.g. the session's media cache) can transform and encode
/// the planes in parallel.
pub fn prepare_planes(img: &Image, color_transform: bool) -> Result<Vec<Vec<i32>>, MediaError> {
    if color_transform && img.channels != 3 {
        return Err(MediaError::BadDimensions(
            "color transform requires 3 channels".to_string(),
        ));
    }
    let mut planes: Vec<Vec<i32>> = (0..img.channels).map(|c| img.plane(c)).collect();
    if color_transform {
        let (r, rest) = planes.split_at_mut(1);
        let (g, b) = rest.split_at_mut(1);
        crate::color::forward_planes(&mut r[0], &mut g[0], &mut b[0]);
        // Level-shift luma only; chroma is already near-zero-centred.
        for v in planes[0].iter_mut() {
            *v -= 128;
        }
    } else {
        for plane in planes.iter_mut() {
            // Level-shift to signed, as standard for wavelet coding.
            for v in plane.iter_mut() {
                *v -= 128;
            }
        }
    }
    Ok(planes)
}

/// Wavelet-transform one prepared plane in place and EZW-encode it,
/// reusing both scratch spaces. One plane of the container body; wrap
/// with [`assemble_container`].
pub fn encode_prepared_plane(
    plane: &mut [i32],
    width: usize,
    height: usize,
    levels: usize,
    kind: WaveletKind,
    wavelet_scratch: &mut WaveletScratch,
    ezw_scratch: &mut EzwScratch,
) -> Vec<u8> {
    wavelet::forward_2d_with(plane, width, height, levels, kind, wavelet_scratch);
    EzwEncoder::encode_plane_with(plane, width, height, levels, ezw_scratch)
}

/// Pack per-channel plane streams into a container:
/// `EZC1 | channels u8 | kind u8 | (len u32 | plane-stream)*`.
pub fn assemble_container(
    channels: usize,
    kind: WaveletKind,
    color_transform: bool,
    streams: &[Vec<u8>],
) -> Vec<u8> {
    assert_eq!(streams.len(), channels, "one stream per channel");
    let body: usize = streams.iter().map(|s| s.len() + 4).sum();
    let mut out = Vec::with_capacity(CONTAINER_HEADER_LEN + body);
    out.extend_from_slice(CONTAINER_MAGIC);
    out.push(channels as u8);
    out.push(
        kind_to_byte(kind)
            | if color_transform {
                COLOR_TRANSFORM_FLAG
            } else {
                0
            },
    );
    for stream in streams {
        out.extend_from_slice(&(stream.len() as u32).to_be_bytes());
        out.extend_from_slice(stream);
    }
    out
}

/// Encode a whole image: wavelet transform + EZW per channel, packed as
/// `EZC1 | channels u8 | kind u8 | (len u32 | plane-stream)*`.
pub fn encode_image(img: &Image, levels: usize, kind: WaveletKind) -> Result<Vec<u8>, MediaError> {
    encode_image_opts(img, levels, kind, false)
}

/// [`encode_image`] with options: `color_transform` applies reversible
/// YCoCg-R decorrelation before coding (3-channel images only), which
/// typically shrinks the stream on natural colour content and
/// front-loads quality into the luma plane.
pub fn encode_image_opts(
    img: &Image,
    levels: usize,
    kind: WaveletKind,
    color_transform: bool,
) -> Result<Vec<u8>, MediaError> {
    if levels == 0 || levels > wavelet::max_levels(img.width, img.height) {
        return Err(MediaError::BadDimensions(format!(
            "{}x{} does not support {} wavelet levels",
            img.width, img.height, levels
        )));
    }
    let mut planes = prepare_planes(img, color_transform)?;
    let mut ws = WaveletScratch::new();
    let mut es = EzwScratch::new();
    let streams: Vec<Vec<u8>> = planes
        .iter_mut()
        .map(|plane| {
            encode_prepared_plane(plane, img.width, img.height, levels, kind, &mut ws, &mut es)
        })
        .collect();
    Ok(assemble_container(
        img.channels,
        kind,
        color_transform,
        &streams,
    ))
}

/// Decode a container (channel streams may be internally truncated by
/// [`truncate_container`]; the container structure itself must be
/// intact).
pub fn decode_image(bytes: &[u8]) -> Result<Image, MediaError> {
    decode_image_reduced(bytes, 0)
}

/// Decode a container at reduced resolution: `drop_levels` finest
/// wavelet levels are discarded, yielding a `(w >> drop, h >> drop)`
/// image — the hierarchical representation of §5.4 where "each of the
/// users may access the same visual information but at different
/// resolutions". The skipped detail subbands also never need to be
/// reconstructed, so thin clients save decode work too.
pub fn decode_image_reduced(bytes: &[u8], drop_levels: usize) -> Result<Image, MediaError> {
    if bytes.len() < CONTAINER_HEADER_LEN || &bytes[..4] != CONTAINER_MAGIC {
        return Err(MediaError::Malformed("bad container header"));
    }
    let channels = bytes[4] as usize;
    if channels != 1 && channels != 3 {
        return Err(MediaError::Malformed("bad channel count"));
    }
    let (kind, color) = kind_from_byte(bytes[5])?;
    if color && channels != 3 {
        return Err(MediaError::Malformed("color transform on non-RGB"));
    }
    let mut ws = WaveletScratch::new();
    let mut es = EzwScratch::new();
    let mut pos = CONTAINER_HEADER_LEN;
    let mut planes = Vec::with_capacity(channels);
    for i in 0..channels {
        if bytes.len() < pos + 4 {
            return Err(MediaError::Malformed("truncated container"));
        }
        let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        if bytes.len() < pos + len {
            return Err(MediaError::Malformed("truncated channel stream"));
        }
        let mut decoded = EzwDecoder::decode_plane_with(&bytes[pos..pos + len], &mut es)?;
        pos += len;
        if drop_levels > decoded.levels {
            return Err(MediaError::BadDimensions(format!(
                "cannot drop {drop_levels} of {} levels",
                decoded.levels
            )));
        }
        wavelet::inverse_2d_partial_with(
            &mut decoded.coeffs,
            decoded.w,
            decoded.h,
            decoded.levels,
            drop_levels,
            kind,
            &mut ws,
        );
        let shift = if color { i == 0 } else { true };
        if shift {
            for v in decoded.coeffs.iter_mut() {
                *v += 128;
            }
        }
        planes.push(decoded);
    }
    let (w, h) = (planes[0].w, planes[0].h);
    if planes.iter().any(|p| p.w != w || p.h != h) {
        return Err(MediaError::Malformed("channel geometry mismatch"));
    }
    if color {
        let (y, rest) = planes.split_at_mut(1);
        let (co, cg) = rest.split_at_mut(1);
        crate::color::inverse_planes(&mut y[0].coeffs, &mut co[0].coeffs, &mut cg[0].coeffs);
    }
    if drop_levels == 0 {
        let mut img = Image::new(w, h, channels);
        for (c, plane) in planes.iter().enumerate() {
            img.set_plane(c, &plane.coeffs);
        }
        return Ok(img);
    }
    let (rw, rh) = (w >> drop_levels, h >> drop_levels);
    let mut img = Image::new(rw, rh, channels);
    for (c, plane) in planes.iter().enumerate() {
        for y in 0..rh {
            for x in 0..rw {
                let v = plane.coeffs[y * w + x].clamp(0, 255) as u8;
                img.set(x, y, c, v);
            }
        }
    }
    Ok(img)
}

/// Build a valid container whose total size is at most `budget` bytes
/// by cutting each channel stream proportionally (never below its
/// header). This is how "receiving only k of n packets" is realised:
/// quality degrades gracefully across all channels instead of dropping
/// whole channels.
pub fn truncate_container(bytes: &[u8], budget: usize) -> Result<Vec<u8>, MediaError> {
    if bytes.len() < CONTAINER_HEADER_LEN || &bytes[..4] != CONTAINER_MAGIC {
        return Err(MediaError::Malformed("bad container header"));
    }
    let channels = bytes[4] as usize;
    // Parse channel extents.
    let mut pos = CONTAINER_HEADER_LEN;
    let mut streams: Vec<&[u8]> = Vec::with_capacity(channels);
    for _ in 0..channels {
        if bytes.len() < pos + 4 {
            return Err(MediaError::Malformed("truncated container"));
        }
        let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        if bytes.len() < pos + len {
            return Err(MediaError::Malformed("truncated channel stream"));
        }
        streams.push(&bytes[pos..pos + len]);
        pos += len;
    }
    let total: usize = streams.iter().map(|s| s.len()).sum();
    let overhead = CONTAINER_HEADER_LEN + 4 * channels;
    let payload_budget = budget.saturating_sub(overhead);
    let mut out = Vec::with_capacity(budget.min(bytes.len()));
    out.extend_from_slice(&bytes[..CONTAINER_HEADER_LEN]);
    for s in &streams {
        let share = (payload_budget * s.len()).checked_div(total).unwrap_or(0);
        let keep = share.clamp(PLANE_HEADER_LEN.min(s.len()), s.len());
        out.extend_from_slice(&(keep as u32).to_be_bytes());
        out.extend_from_slice(&s[..keep]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::synthetic_scene;
    use crate::metrics::psnr;

    #[test]
    fn bit_writer_reader_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, false, true, true, true, false, true, true];
        for &b in &pattern {
            w.push(b);
        }
        assert_eq!(w.len_bits(), 9);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.next(), Some(b));
        }
        // Padding bits then exhaustion.
        for _ in 9..16 {
            assert!(r.next().is_some());
        }
        assert_eq!(r.next(), None);
    }

    #[test]
    fn bit_writer_matches_per_bit_packing_across_word_boundaries() {
        // Long pseudo-random sequences pushed as mixed-width symbols
        // must pack exactly like single-bit pushes (which in turn match
        // the pre-refactor byte-at-a-time writer).
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut bits_expected = Vec::new();
        let mut batch = BitWriter::new();
        let mut single = BitWriter::new();
        for _ in 0..999 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let n = (state % 3) as u32 + 1; // 1..=3 bit symbols
            let pattern = (state >> 32) as u32 & ((1 << n) - 1);
            batch.push_bits(pattern, n);
            for i in (0..n).rev() {
                let bit = pattern & (1 << i) != 0;
                single.push(bit);
                bits_expected.push(bit);
            }
        }
        assert_eq!(batch.len_bits(), single.len_bits());
        let (batch, single) = (batch.into_bytes(), single.into_bytes());
        assert_eq!(batch, single);
        let mut r = BitReader::new(&batch);
        for (i, &b) in bits_expected.iter().enumerate() {
            assert_eq!(r.next(), Some(b), "bit {i}");
        }
    }

    #[test]
    fn geometry_scan_covers_everything_once() {
        let geo = Geometry::new(16, 16, 3);
        let mut seen = vec![false; 256];
        for &i in &geo.scan {
            assert!(!seen[i as usize], "duplicate {i}");
            seen[i as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn geometry_parents_scanned_before_children() {
        let geo = Geometry::new(32, 32, 3);
        let mut order = vec![0usize; 32 * 32];
        for (rank, &i) in geo.scan.iter().enumerate() {
            order[i as usize] = rank;
        }
        let mut kids = [0usize; 4];
        for idx in 0..32 * 32 {
            let n = geo.children(idx, &mut kids);
            for &k in &kids[..n] {
                assert!(order[idx] < order[k], "parent {idx} after child {k}");
            }
        }
    }

    #[test]
    fn stamp_descendants_matches_recursive_definition() {
        // The scratch-stack stamp must mark exactly the transitive
        // children of the root — the same set the recursive definition
        // (and the pre-refactor per-root `Vec` version) produces.
        fn collect(geo: &Geometry, idx: usize, out: &mut Vec<usize>) {
            let mut kids = [0usize; 4];
            let n = geo.children(idx, &mut kids);
            for &k in &kids[..n] {
                out.push(k);
                collect(geo, k, out);
            }
        }
        let geo = Geometry::new(32, 16, 2);
        let mut work = Vec::new();
        for root in 0..32 * 16 {
            let mut stamps = vec![u32::MAX; 32 * 16];
            geo.stamp_descendants(root, 7, &mut stamps, &mut work);
            let mut expected = Vec::new();
            collect(&geo, root, &mut expected);
            expected.sort_unstable();
            let mut got: Vec<usize> = (0..stamps.len()).filter(|&i| stamps[i] == 7).collect();
            got.sort_unstable();
            assert_eq!(got, expected, "root {root}");
        }
    }

    #[test]
    fn full_stream_decodes_losslessly() {
        let scene = synthetic_scene(32, 32, 1, 3, 11);
        let mut plane = scene.image.plane(0);
        for v in plane.iter_mut() {
            *v -= 128;
        }
        wavelet::forward_2d(&mut plane, 32, 32, 3, WaveletKind::Cdf53);
        let stream = EzwEncoder::encode_plane(&plane, 32, 32, 3);
        let decoded = EzwDecoder::decode_plane(&stream).unwrap();
        assert_eq!(decoded.coeffs, plane, "full embedded stream is lossless");
    }

    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_scratch() {
        // Encoding planes of different shapes and contents through one
        // scratch must give the same bytes as fresh scratch per call
        // (stale stamps, lists, or geometry must never leak through).
        let mut scratch = EzwScratch::new();
        for (w, h, levels, seed) in [
            (32, 32, 3, 1u64),
            (16, 16, 2, 2),
            (32, 32, 3, 3),
            (64, 32, 2, 4),
        ] {
            let scene = synthetic_scene(w, h, 1, 3, seed);
            let mut plane = scene.image.plane(0);
            for v in plane.iter_mut() {
                *v -= 128;
            }
            wavelet::forward_2d(&mut plane, w, h, levels, WaveletKind::Cdf53);
            let warm = EzwEncoder::encode_plane_with(&plane, w, h, levels, &mut scratch);
            let cold = EzwEncoder::encode_plane(&plane, w, h, levels);
            assert_eq!(warm, cold, "{w}x{h} L{levels} seed {seed}");
            let dwarm = EzwDecoder::decode_plane_with(&warm, &mut scratch).unwrap();
            let dcold = EzwDecoder::decode_plane(&cold).unwrap();
            assert_eq!(dwarm, dcold);
            assert_eq!(dwarm.coeffs, plane);
        }
    }

    #[test]
    fn all_zero_plane_is_tiny() {
        let plane = vec![0i32; 64 * 64];
        let stream = EzwEncoder::encode_plane(&plane, 64, 64, 4);
        assert_eq!(stream.len(), PLANE_HEADER_LEN);
        let decoded = EzwDecoder::decode_plane(&stream).unwrap();
        assert!(decoded.coeffs.iter().all(|&c| c == 0));
    }

    #[test]
    fn any_prefix_decodes_and_quality_is_monotone() {
        let scene = synthetic_scene(64, 64, 1, 4, 3);
        let container = encode_image(&scene.image, 4, WaveletKind::Cdf53).unwrap();
        let full = decode_image(&container).unwrap();
        assert_eq!(full.data, scene.image.data, "full container lossless");

        let mut last_psnr = 0.0;
        for frac in [0.05, 0.1, 0.25, 0.5, 1.0] {
            let budget = (container.len() as f64 * frac) as usize;
            let cut = truncate_container(&container, budget).unwrap();
            assert!(cut.len() <= container.len());
            let img = decode_image(&cut).unwrap();
            let q = psnr(&scene.image, &img);
            assert!(
                q >= last_psnr - 0.9,
                "PSNR should be (weakly) monotone: {q:.2} after {last_psnr:.2} at {frac}"
            );
            last_psnr = q;
        }
        assert!(last_psnr.is_infinite(), "100% prefix is lossless");
    }

    #[test]
    fn tiny_prefix_still_reconstructs_something() {
        let scene = synthetic_scene(64, 64, 1, 4, 5);
        let container = encode_image(&scene.image, 4, WaveletKind::Cdf53).unwrap();
        let cut = truncate_container(&container, 40).unwrap();
        let img = decode_image(&cut).unwrap();
        let q = psnr(&scene.image, &img);
        assert!(q > 5.0, "even ~40 bytes give a coarse image, got {q:.2} dB");
    }

    #[test]
    fn color_image_round_trip_and_truncation() {
        let scene = synthetic_scene(32, 32, 3, 3, 8);
        let container = encode_image(&scene.image, 3, WaveletKind::Cdf53).unwrap();
        let full = decode_image(&container).unwrap();
        assert_eq!(full.data, scene.image.data);
        let cut = truncate_container(&container, container.len() / 3).unwrap();
        let img = decode_image(&cut).unwrap();
        assert_eq!(img.channels, 3);
        assert!(psnr(&scene.image, &img) > 15.0);
    }

    #[test]
    fn color_transform_is_lossless_and_usually_smaller() {
        let scene = synthetic_scene(64, 64, 3, 4, 19);
        let plain = encode_image(&scene.image, 4, WaveletKind::Cdf53).unwrap();
        let transformed = encode_image_opts(&scene.image, 4, WaveletKind::Cdf53, true).unwrap();
        assert_eq!(
            decode_image(&transformed).unwrap().data,
            scene.image.data,
            "YCoCg-R path is lossless"
        );
        // Synthetic scenes have strongly correlated channels: the
        // decorrelated stream should not be larger (and usually wins).
        assert!(
            transformed.len() <= plain.len() + plain.len() / 20,
            "transformed {} vs plain {}",
            transformed.len(),
            plain.len()
        );
    }

    #[test]
    fn color_transform_truncation_still_decodes() {
        let scene = synthetic_scene(64, 64, 3, 4, 20);
        let c = encode_image_opts(&scene.image, 4, WaveletKind::Cdf53, true).unwrap();
        let cut = truncate_container(&c, c.len() / 3).unwrap();
        let img = decode_image(&cut).unwrap();
        assert_eq!(img.channels, 3);
        assert!(psnr(&scene.image, &img) > 15.0);
    }

    #[test]
    fn color_transform_rejected_on_grayscale() {
        let scene = synthetic_scene(32, 32, 1, 1, 0);
        assert!(encode_image_opts(&scene.image, 2, WaveletKind::Haar, true).is_err());
        assert!(prepare_planes(&scene.image, true).is_err());
    }

    #[test]
    fn haar_also_round_trips() {
        let scene = synthetic_scene(32, 32, 1, 2, 21);
        let container = encode_image(&scene.image, 3, WaveletKind::Haar).unwrap();
        assert_eq!(decode_image(&container).unwrap().data, scene.image.data);
    }

    #[test]
    fn compression_beats_raw_on_structured_content() {
        let scene = synthetic_scene(128, 128, 1, 4, 13);
        let container = encode_image(&scene.image, 5, WaveletKind::Cdf53).unwrap();
        assert!(
            container.len() < scene.image.byte_len(),
            "embedded stream {} should undercut raw {}",
            container.len(),
            scene.image.byte_len()
        );
    }

    #[test]
    fn split_encode_steps_match_encode_image_opts() {
        // prepare_planes + encode_prepared_plane + assemble_container
        // is the parallel-friendly spelling of encode_image_opts; the
        // bytes must be identical for any channel/transform combo.
        for (channels, color) in [(1, false), (3, false), (3, true)] {
            let scene = synthetic_scene(32, 32, channels, 3, 17);
            let whole = encode_image_opts(&scene.image, 3, WaveletKind::Cdf53, color).unwrap();
            let mut planes = prepare_planes(&scene.image, color).unwrap();
            let mut ws = WaveletScratch::new();
            let mut es = EzwScratch::new();
            let streams: Vec<Vec<u8>> = planes
                .iter_mut()
                .map(|p| encode_prepared_plane(p, 32, 32, 3, WaveletKind::Cdf53, &mut ws, &mut es))
                .collect();
            let split = assemble_container(channels, WaveletKind::Cdf53, color, &streams);
            assert_eq!(split, whole, "channels={channels} color={color}");
        }
    }

    #[test]
    fn reduced_resolution_decode_matches_downsample() {
        let scene = synthetic_scene(64, 64, 1, 3, 14);
        let container = encode_image(&scene.image, 4, WaveletKind::Haar).unwrap();
        let half = decode_image_reduced(&container, 1).unwrap();
        assert_eq!((half.width, half.height), (32, 32));
        // The Haar LL band is (approximately) the box-downsampled image.
        let reference = scene.image.downsample(2);
        let q = psnr(&reference, &half);
        assert!(q > 40.0, "half-res decode ~= 2x downsample, got {q:.1} dB");
        // Quarter resolution too.
        let quarter = decode_image_reduced(&container, 2).unwrap();
        assert_eq!((quarter.width, quarter.height), (16, 16));
        assert!(psnr(&scene.image.downsample(4), &quarter) > 30.0);
    }

    #[test]
    fn reduced_decode_of_zero_drop_is_normal_decode() {
        let scene = synthetic_scene(32, 32, 3, 2, 6);
        let container = encode_image(&scene.image, 3, WaveletKind::Cdf53).unwrap();
        let full = decode_image_reduced(&container, 0).unwrap();
        assert_eq!(full.data, scene.image.data);
    }

    #[test]
    fn reduced_decode_rejects_excess_drop() {
        let scene = synthetic_scene(32, 32, 1, 1, 0);
        let container = encode_image(&scene.image, 2, WaveletKind::Haar).unwrap();
        assert!(decode_image_reduced(&container, 3).is_err());
    }

    #[test]
    fn malformed_streams_rejected() {
        assert!(EzwDecoder::decode_plane(b"nope").is_err());
        assert!(decode_image(b"EZC1").is_err());
        let scene = synthetic_scene(16, 16, 1, 1, 0);
        let mut container = encode_image(&scene.image, 2, WaveletKind::Cdf53).unwrap();
        container[4] = 7; // bad channel count
        assert!(decode_image(&container).is_err());
    }

    #[test]
    fn encoder_rejects_bad_levels() {
        let scene = synthetic_scene(16, 16, 1, 1, 0);
        assert!(encode_image(&scene.image, 0, WaveletKind::Haar).is_err());
        assert!(encode_image(&scene.image, 9, WaveletKind::Haar).is_err());
    }
}
