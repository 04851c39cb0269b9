//! Discrete design spaces and their normalized encodings.

use autopilot_rng::Rng;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A discrete, rectangular design space: dimension `i` takes one of
/// `cardinalities[i]` ordinal levels.
///
/// Points are index vectors (`&[usize]` of length [`DesignSpace::dims`]);
/// [`DesignSpace::encode`] maps them to `[0, 1]^d` for surrogate models,
/// preserving the ordinal structure of the underlying parameter lists
/// (Table II parameters are all ordered: layer counts, filter counts,
/// power-of-two PE and SRAM sizes).
///
/// Every point also has one integer identity, its mixed-radix
/// [`DesignSpace::rank`] (its position in [`DesignSpace::iter_points`]'
/// lexicographic order). Construction rejects spaces whose ranks would
/// not fit a `u64`, so two distinct points never share a rank, and
/// hot paths can key sets and caches by an integer instead of hashing
/// a `Vec<usize>`. The `_into` variants of the point-producing methods
/// append to caller-owned flat buffers (stride [`DesignSpace::dims`]),
/// so a candidate pool can be drawn, deduplicated and encoded without a
/// heap allocation per point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignSpace {
    cardinalities: Vec<usize>,
}

impl DesignSpace {
    /// Creates a space from per-dimension cardinalities.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError`] when there are no dimensions, any
    /// dimension has zero levels, or the space has more than `u64::MAX`
    /// points (its ranks would not fit a `u64`).
    pub fn new(cardinalities: Vec<usize>) -> Result<DesignSpace, SpaceError> {
        if cardinalities.is_empty() {
            return Err(SpaceError::NoDimensions);
        }
        if let Some(dim) = cardinalities.iter().position(|&c| c == 0) {
            return Err(SpaceError::EmptyDimension { dim });
        }
        let space = DesignSpace { cardinalities };
        let points = space.len();
        if points > u128::from(u64::MAX) {
            return Err(SpaceError::TooManyPoints { points });
        }
        Ok(space)
    }

    /// The trivial one-dimensional, one-point space. Infallible, so
    /// callers constructing a space from dimensions they have proved
    /// non-empty can fall back to it instead of panicking.
    pub fn unit() -> DesignSpace {
        DesignSpace { cardinalities: vec![1] }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.cardinalities.len()
    }

    /// Number of levels in dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range.
    pub fn cardinality(&self, dim: usize) -> usize {
        self.cardinalities[dim]
    }

    /// Total number of points (saturating).
    pub fn len(&self) -> u128 {
        self.cardinalities.iter().fold(1u128, |acc, &c| acc.saturating_mul(c as u128))
    }

    /// True when the space has zero points (never constructible; part of
    /// the `len`/`is_empty` contract).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `point` is inside the space.
    pub fn contains(&self, point: &[usize]) -> bool {
        point.len() == self.dims() && point.iter().zip(&self.cardinalities).all(|(&p, &c)| p < c)
    }

    /// The point's mixed-radix rank: its index in
    /// [`DesignSpace::iter_points`]' lexicographic order (the last
    /// dimension varies fastest). Distinct points have distinct ranks,
    /// all below [`DesignSpace::len`]; construction guarantees they fit.
    ///
    /// # Panics
    ///
    /// Panics if `point` is outside the space.
    pub fn rank(&self, point: &[usize]) -> u64 {
        assert!(self.contains(point), "point outside design space");
        // Each partial fold is the rank of a prefix in the prefix space,
        // so it stays below `len()` and never overflows.
        point.iter().zip(&self.cardinalities).fold(0u64, |r, (&p, &c)| r * c as u64 + p as u64)
    }

    /// Normalized `[0, 1]^d` encoding of `point` (level midpoint
    /// encoding; single-level dimensions encode to 0.5).
    ///
    /// # Panics
    ///
    /// Panics if `point` is outside the space.
    pub fn encode(&self, point: &[usize]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dims());
        self.encode_into(point, &mut out);
        out
    }

    /// Appends [`DesignSpace::encode`]'s encoding of `point` to `out`.
    ///
    /// # Panics
    ///
    /// Panics if `point` is outside the space.
    pub fn encode_into(&self, point: &[usize], out: &mut Vec<f64>) {
        assert!(self.contains(point), "point outside design space");
        out.extend(point.iter().zip(&self.cardinalities).map(|(&p, &c)| {
            if c == 1 {
                0.5
            } else {
                p as f64 / (c - 1) as f64
            }
        }));
    }

    /// A uniformly random point.
    pub fn random_point(&self, rng: &mut Rng) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.dims());
        self.random_point_into(rng, &mut out);
        out
    }

    /// Appends a uniformly random point to `out`: one `rng.below` draw
    /// per dimension, in dimension order.
    pub fn random_point_into(&self, rng: &mut Rng, out: &mut Vec<usize>) {
        out.extend(self.cardinalities.iter().map(|&c| rng.below(c)));
    }

    /// All 1-step ordinal neighbours of `point` (each dimension +-1).
    ///
    /// # Panics
    ///
    /// Panics if `point` is outside the space.
    pub fn neighbors(&self, point: &[usize]) -> Vec<Vec<usize>> {
        let mut flat = Vec::new();
        self.neighbors_into(point, &mut flat);
        flat.chunks_exact(self.dims()).map(<[usize]>::to_vec).collect()
    }

    /// Appends [`DesignSpace::neighbors`]' points to `out` in the same
    /// order (per dimension, the `-1` step before the `+1` step), each
    /// [`DesignSpace::dims`] entries long.
    ///
    /// # Panics
    ///
    /// Panics if `point` is outside the space.
    pub fn neighbors_into(&self, point: &[usize], out: &mut Vec<usize>) {
        assert!(self.contains(point), "point outside design space");
        for (d, &c) in self.cardinalities.iter().enumerate() {
            if point[d] > 0 {
                out.extend_from_slice(point);
                let at = out.len() - point.len() + d;
                out[at] -= 1;
            }
            if point[d] + 1 < c {
                out.extend_from_slice(point);
                let at = out.len() - point.len() + d;
                out[at] += 1;
            }
        }
    }

    /// Iterates over every point of the space in lexicographic order.
    ///
    /// Intended for small spaces (exhaustive baselines and tests); the
    /// iterator is lazy so it is safe to `take` from a large space.
    pub fn iter_points(&self) -> impl Iterator<Item = Vec<usize>> + '_ {
        let dims = self.dims();
        let mut current = vec![0usize; dims];
        let mut done = false;
        std::iter::from_fn(move || {
            if done {
                return None;
            }
            let out = current.clone();
            // Advance odometer.
            let mut d = dims;
            loop {
                if d == 0 {
                    done = true;
                    break;
                }
                d -= 1;
                current[d] += 1;
                if current[d] < self.cardinalities[d] {
                    break;
                }
                current[d] = 0;
            }
            Some(out)
        })
    }
}

/// A map keyed by point rank ([`DesignSpace::rank`]).
pub(crate) type RankMap<V> = HashMap<u64, V, BuildHasherDefault<RankHasher>>;

/// The fixed hasher of [`RankMap`]: the SplitMix64
/// finalizer over the rank. Ranks of nearby points differ in their low
/// bits only, and the finalizer spreads every input bit over the whole
/// output, so the table's bucket and control bits both vary. It has no
/// per-process seed: the maps serve lookups, inserts and removals, never
/// iteration, so no result depends on their layout.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RankHasher(u64);

impl Hasher for RankHasher {
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, rank: u64) {
        self.0 = rank;
    }
}

/// Error constructing a [`DesignSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpaceError {
    /// The space has no dimensions.
    NoDimensions,
    /// Dimension `dim` has zero levels.
    EmptyDimension {
        /// Offending dimension index.
        dim: usize,
    },
    /// The space has more than `u64::MAX` points, so point ranks
    /// ([`DesignSpace::rank`]) would collide.
    TooManyPoints {
        /// The number of points, saturated at `u128::MAX`.
        points: u128,
    },
}

impl fmt::Display for SpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceError::NoDimensions => write!(f, "design space must have at least one dimension"),
            SpaceError::EmptyDimension { dim } => {
                write!(f, "design-space dimension {dim} has zero levels")
            }
            SpaceError::TooManyPoints { points } => {
                write!(f, "design space has {points} points, more than a u64 rank can index")
            }
        }
    }
}

impl Error for SpaceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_is_product_of_cardinalities() {
        let s = DesignSpace::new(vec![9, 3, 8, 8, 8, 8, 8]).unwrap();
        assert_eq!(s.len(), 9 * 3 * 8u128.pow(5));
        assert!(!s.is_empty());
    }

    #[test]
    fn rejects_degenerate_spaces() {
        assert_eq!(DesignSpace::new(vec![]), Err(SpaceError::NoDimensions));
        assert_eq!(DesignSpace::new(vec![3, 0]), Err(SpaceError::EmptyDimension { dim: 1 }));
    }

    #[test]
    fn encode_maps_to_unit_interval() {
        let s = DesignSpace::new(vec![5, 1]).unwrap();
        assert_eq!(s.encode(&[0, 0]), vec![0.0, 0.5]);
        assert_eq!(s.encode(&[4, 0]), vec![1.0, 0.5]);
        assert_eq!(s.encode(&[2, 0]), vec![0.5, 0.5]);
    }

    #[test]
    fn random_points_are_contained() {
        let s = DesignSpace::new(vec![9, 3, 8]).unwrap();
        let mut rng = Rng::seed_from_u64(0);
        for _ in 0..100 {
            assert!(s.contains(&s.random_point(&mut rng)));
        }
    }

    #[test]
    fn neighbors_differ_in_one_dim() {
        let s = DesignSpace::new(vec![3, 3]).unwrap();
        let n = s.neighbors(&[1, 1]);
        assert_eq!(n.len(), 4);
        for p in &n {
            let diff: usize = p.iter().zip(&[1usize, 1]).map(|(a, b)| a.abs_diff(*b)).sum();
            assert_eq!(diff, 1);
        }
        // Corner point has fewer neighbours.
        assert_eq!(s.neighbors(&[0, 0]).len(), 2);
    }

    #[test]
    fn iter_points_is_exhaustive_and_unique() {
        let s = DesignSpace::new(vec![3, 2, 2]).unwrap();
        let all: Vec<_> = s.iter_points().collect();
        assert_eq!(all.len(), 12);
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 12);
        assert!(all.iter().all(|p| s.contains(p)));
    }

    #[test]
    fn rank_is_the_lexicographic_index() {
        // Injective over the whole space: the ranks of `iter_points` are
        // exactly 0, 1, 2, … in order.
        for dims in [vec![3, 2, 2], vec![9, 3, 8]] {
            let s = DesignSpace::new(dims).unwrap();
            let ranks: Vec<u64> = s.iter_points().map(|p| s.rank(&p)).collect();
            assert_eq!(ranks, (0..s.len() as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn rejects_spaces_whose_ranks_overflow_u64() {
        // 2^32 · 2^32 = 2^64 points: one more than a u64 rank can index.
        let half = 1usize << 32;
        assert_eq!(
            DesignSpace::new(vec![half, half]),
            Err(SpaceError::TooManyPoints { points: 1u128 << 64 })
        );
        assert_eq!(
            DesignSpace::new(vec![usize::MAX, usize::MAX, 2]),
            Err(SpaceError::TooManyPoints { points: u128::MAX })
        );
        assert!(DesignSpace::new(vec![usize::MAX, 2]).unwrap_err().to_string().contains("u64"));
        // Exactly u64::MAX points still fits, and its last rank is exact.
        let s = DesignSpace::new(vec![usize::MAX]).unwrap();
        assert_eq!(s.rank(&[usize::MAX - 1]), u64::MAX - 1);
        let s = DesignSpace::new(vec![half - 1, half + 1]).unwrap();
        assert_eq!(s.rank(&[half - 2, half]), u64::MAX - 1);
    }

    #[test]
    fn flat_draws_repeat_the_point_draws() {
        // The per-point form each `_into` method replaced: one `Vec` per
        // draw and per neighbour.
        fn old_random_point(s: &DesignSpace, rng: &mut Rng) -> Vec<usize> {
            s.cardinalities.iter().map(|&c| rng.below(c)).collect()
        }
        fn old_neighbors(s: &DesignSpace, point: &[usize]) -> Vec<Vec<usize>> {
            let mut out = Vec::new();
            for d in 0..s.dims() {
                if point[d] > 0 {
                    let mut p = point.to_vec();
                    p[d] -= 1;
                    out.push(p);
                }
                if point[d] + 1 < s.cardinalities[d] {
                    let mut p = point.to_vec();
                    p[d] += 1;
                    out.push(p);
                }
            }
            out
        }
        let s = DesignSpace::new(vec![9, 3, 8, 1, 8, 2, 8]).unwrap();
        let (mut old, mut new) = (Rng::seed_from_u64(17), Rng::seed_from_u64(17));
        let mut flat = Vec::new();
        let mut want = Vec::new();
        for _ in 0..64 {
            want.push(old_random_point(&s, &mut old));
            s.random_point_into(&mut new, &mut flat);
        }
        assert_eq!(flat, want.concat());
        assert_eq!(old.next_u64(), new.next_u64(), "same number of draws");
        let mut flat = vec![7, 7];
        let mut want = Vec::new();
        for p in s.iter_points().step_by(97).chain([vec![0; 7], vec![8, 2, 7, 0, 7, 1, 7]]) {
            want.extend(old_neighbors(&s, &p));
            s.neighbors_into(&p, &mut flat);
            assert_eq!(s.neighbors(&p), old_neighbors(&s, &p));
        }
        assert_eq!(flat[..2], [7, 7], "appends after existing entries");
        assert_eq!(flat[2..], want.concat());
        let mut encoded = vec![0.25];
        s.encode_into(&[4, 1, 0, 0, 7, 1, 2], &mut encoded);
        assert_eq!(encoded[1..], s.encode(&[4, 1, 0, 0, 7, 1, 2]));
    }

    #[test]
    #[should_panic(expected = "outside design space")]
    fn encode_rejects_out_of_range() {
        let s = DesignSpace::new(vec![2, 2]).unwrap();
        let _ = s.encode(&[2, 0]);
    }
}
