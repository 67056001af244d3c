//! Rank topology: the Cartesian decomposition grid (MPI_Cart_create
//! analogue).

use serde::{Deserialize, Serialize};

/// A PX×PY×PZ Cartesian arrangement of ranks (x fastest), matching the 3-D
/// domain decomposition of the solver (paper Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CartTopology {
    pub parts: [usize; 3],
}

impl CartTopology {
    pub fn new(parts: [usize; 3]) -> Self {
        assert!(parts.iter().all(|&p| p > 0));
        Self { parts }
    }

    pub fn size(&self) -> usize {
        self.parts.iter().product()
    }

    pub fn rank_of(&self, c: [usize; 3]) -> usize {
        debug_assert!((0..3).all(|a| c[a] < self.parts[a]));
        c[0] + self.parts[0] * (c[1] + self.parts[1] * c[2])
    }

    pub fn coords_of(&self, rank: usize) -> [usize; 3] {
        debug_assert!(rank < self.size());
        [
            rank % self.parts[0],
            (rank / self.parts[0]) % self.parts[1],
            rank / (self.parts[0] * self.parts[1]),
        ]
    }

    /// Neighbour rank one step along `axis` (0..3) in direction `dir`
    /// (−1/+1); `None` at the edge (non-periodic, like the solver).
    pub fn neighbor(&self, rank: usize, axis: usize, dir: isize) -> Option<usize> {
        let mut c = self.coords_of(rank);
        let p = self.parts[axis];
        match dir {
            -1 => {
                if c[axis] == 0 {
                    return None;
                }
                c[axis] -= 1;
            }
            1 => {
                if c[axis] + 1 == p {
                    return None;
                }
                c[axis] += 1;
            }
            _ => panic!("dir must be ±1"),
        }
        Some(self.rank_of(c))
    }

    /// Manhattan hop distance between two ranks on the grid — proxies the
    /// "physical interconnect distance" whose effect on latency the paper
    /// discusses for 3-D torus NUMA systems (§IV.A).
    pub fn hop_distance(&self, a: usize, b: usize) -> usize {
        let ca = self.coords_of(a);
        let cb = self.coords_of(b);
        (0..3).map(|i| ca[i].abs_diff(cb[i])).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_rank_coords() {
        let t = CartTopology::new([3, 2, 4]);
        for r in 0..t.size() {
            assert_eq!(t.rank_of(t.coords_of(r)), r);
        }
    }

    #[test]
    fn neighbors_step_one_hop() {
        let t = CartTopology::new([3, 3, 3]);
        let center = t.rank_of([1, 1, 1]);
        for axis in 0..3 {
            for dir in [-1isize, 1] {
                let n = t.neighbor(center, axis, dir).unwrap();
                assert_eq!(t.hop_distance(center, n), 1);
            }
        }
    }

    #[test]
    fn edges_have_no_neighbor() {
        let t = CartTopology::new([2, 2, 2]);
        let corner = t.rank_of([0, 0, 0]);
        assert!(t.neighbor(corner, 0, -1).is_none());
        assert!(t.neighbor(corner, 1, -1).is_none());
        assert!(t.neighbor(corner, 2, -1).is_none());
        assert!(t.neighbor(corner, 0, 1).is_some());
    }

    #[test]
    fn hop_distance_is_manhattan() {
        let t = CartTopology::new([4, 4, 4]);
        let a = t.rank_of([0, 0, 0]);
        let b = t.rank_of([3, 2, 1]);
        assert_eq!(t.hop_distance(a, b), 6);
        assert_eq!(t.hop_distance(a, a), 0);
        assert_eq!(t.hop_distance(a, b), t.hop_distance(b, a));
    }
}
