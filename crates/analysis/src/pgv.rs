//! Peak-ground-velocity maps (the paper's Figs. 15, 17, 21).

use awp_grid::dims::Dims3;
use awp_solver::solver::RankResult;
use serde::{Deserialize, Serialize};

/// A surface PGV map on the global grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PgvMap {
    pub nx: usize,
    pub ny: usize,
    /// Grid spacing (m).
    pub h: f64,
    /// Peak |v_h| per surface cell (m/s), x-fastest.
    pub data: Vec<f64>,
}

impl PgvMap {
    pub fn zeros(nx: usize, ny: usize, h: f64) -> Self {
        Self { nx, ny, h, data: vec![0.0; nx * ny] }
    }

    /// Assemble from per-rank results: each surface-owning rank carries its
    /// subdomain's surface peaks, x-fastest; a rank off the free surface
    /// (an empty fragment) writes nothing.
    pub fn from_rank_results(results: &[RankResult], global: Dims3, h: f64) -> Self {
        let mut map = Self::zeros(global.nx, global.ny, h);
        for RankResult { sub, pgv_map: pgv, .. } in results {
            if pgv.is_empty() {
                continue;
            }
            for j in 0..sub.dims.ny {
                for i in 0..sub.dims.nx {
                    let v = pgv[i + sub.dims.nx * j] as f64;
                    map.data[(sub.origin.i + i) + global.nx * (sub.origin.j + j)] = v;
                }
            }
        }
        map
    }

    /// Build from a dense f64 field (reference solver output).
    pub fn from_field(data: Vec<f64>, nx: usize, ny: usize, h: f64) -> Self {
        assert_eq!(data.len(), nx * ny);
        Self { nx, ny, h, data }
    }

    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i + self.nx * j]
    }

    pub fn max(&self) -> f64 {
        self.data.iter().fold(0.0, |m: f64, &v| m.max(v))
    }

    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f64>() / self.data.len() as f64
        }
    }

    /// PGV at the cell nearest a map position (m).
    pub fn at_position(&self, x: f64, y: f64) -> f64 {
        let i = ((x / self.h).round().max(0.0) as usize).min(self.nx - 1);
        let j = ((y / self.h).round().max(0.0) as usize).min(self.ny - 1);
        self.at(i, j)
    }

    /// Mean PGV within a radius of a point — robust station-area measure.
    pub fn mean_around(&self, x: f64, y: f64, radius: f64) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for j in 0..self.ny {
            for i in 0..self.nx {
                let dx = i as f64 * self.h - x;
                let dy = j as f64 * self.h - y;
                if dx * dx + dy * dy <= radius * radius {
                    sum += self.at(i, j);
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Cell-wise ratio against another map (their dims must match). Cells
    /// where `other` is ~0 produce 0.
    pub fn ratio(&self, other: &PgvMap) -> PgvMap {
        assert_eq!((self.nx, self.ny), (other.nx, other.ny));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| if *b > 1e-12 { a / b } else { 0.0 })
            .collect();
        PgvMap { nx: self.nx, ny: self.ny, h: self.h, data }
    }

    /// Quick terminal rendering: log-scaled intensity ramp, downsampled to
    /// at most `cols` columns.
    pub fn to_ascii(&self, cols: usize) -> String {
        let ramp: &[u8] = b" .:-=+*#%@";
        let step = (self.nx / cols.max(1)).max(1);
        let max = self.max().max(1e-12);
        let mut out = String::new();
        for j in (0..self.ny).step_by(step).rev() {
            for i in (0..self.nx).step_by(step) {
                let v = self.at(i, j);
                let t = ((v / max).max(1e-4).log10() / 4.0 + 1.0).clamp(0.0, 1.0);
                let c = ramp[((t * (ramp.len() - 1) as f64).round()) as usize];
                out.push(c as char);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_basics() {
        let mut m = PgvMap::zeros(4, 3, 100.0);
        m.data[1 + 4 * 2] = 2.5;
        assert_eq!(m.at(1, 2), 2.5);
        assert_eq!(m.max(), 2.5);
        assert!((m.mean() - 2.5 / 12.0).abs() < 1e-12);
        assert_eq!(m.at_position(120.0, 210.0), 2.5);
    }

    #[test]
    fn position_clamps() {
        let m = PgvMap::zeros(4, 3, 100.0);
        assert_eq!(m.at_position(-50.0, 1e9), 0.0);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        let mut a = PgvMap::zeros(2, 2, 1.0);
        let mut b = PgvMap::zeros(2, 2, 1.0);
        a.data = vec![2.0, 4.0, 0.0, 1.0];
        b.data = vec![1.0, 2.0, 0.0, 0.0];
        let r = a.ratio(&b);
        assert_eq!(r.data, vec![2.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn mean_around_averages_disk() {
        let mut m = PgvMap::zeros(10, 10, 1.0);
        m.data[5 + 10 * 5] = 10.0;
        let v = m.mean_around(5.0, 5.0, 1.1);
        // Disk covers 5 cells (centre + 4 neighbours) → mean 2.
        assert!((v - 2.0).abs() < 1e-12, "{v}");
    }

    #[test]
    fn ascii_renders() {
        let mut m = PgvMap::zeros(8, 4, 1.0);
        m.data[3 + 8 * 2] = 1.0;
        let art = m.to_ascii(8);
        assert_eq!(art.lines().count(), 4);
        assert!(art.contains('@'), "{art}");
    }
}
