//! Sparse symmetric matrices: generation, mat-vec, and symbolic Cholesky.
//!
//! CG and CHOLESKY both run on random sparse symmetric positive-definite
//! matrices. CG needs a full-row view for the mat-vec; CHOLESKY needs the
//! lower-triangular column pattern *with fill-in* (computed here by a
//! standard elimination-tree symbolic factorization) so the simulated
//! fan-out algorithm knows every column's structure up front — just as
//! SPLASH CHOLESKY factors a pre-analysed matrix.

use spasm_prng::{Rng, StdRng};

/// A sparse symmetric positive-definite matrix.
#[derive(Debug, Clone)]
pub struct SymSparse {
    /// Dimension.
    pub n: usize,
    /// Full symmetric rows: for each row, sorted `(col, value)` pairs.
    pub rows: Vec<Vec<(usize, f64)>>,
}

impl SymSparse {
    /// Generates a random SPD matrix of dimension `n` with roughly
    /// `extra_per_row` off-diagonal entries per row, made positive
    /// definite by strong diagonal dominance.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn random_spd(n: usize, extra_per_row: usize, seed: u64) -> Self {
        assert!(n > 0, "matrix must be non-empty");
        let mut rng = StdRng::seed_from_u64(seed);
        // Collect the strictly-lower pattern as (row > col) pairs.
        let mut lower: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for i in 1..n {
            // A band neighbour keeps the matrix irreducible, plus random
            // extras for irregularity.
            let mut cols = vec![i - 1];
            for _ in 0..extra_per_row {
                let j = rng.gen_range(0..i);
                cols.push(j);
            }
            cols.sort_unstable();
            cols.dedup();
            for j in cols {
                let v = rng.gen_range(-1.0..1.0);
                lower[j].push((i, v));
            }
        }
        // Assemble full rows; diagonal dominates its row.
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut diag = vec![1.0f64; n];
        for (j, col) in lower.iter().enumerate() {
            for &(i, v) in col {
                rows[i].push((j, v));
                rows[j].push((i, v));
                diag[i] += v.abs();
                diag[j] += v.abs();
            }
        }
        for (i, row) in rows.iter_mut().enumerate() {
            row.push((i, diag[i] + 1.0));
            row.sort_unstable_by_key(|&(c, _)| c);
        }
        SymSparse { n, rows }
    }

    /// `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        self.rows
            .iter()
            .map(|row| row.iter().map(|&(c, v)| v * x[c]).sum())
            .collect()
    }

    /// The lower-triangular (including diagonal) columns: for column `j`,
    /// sorted `(row >= j, value)` pairs.
    pub fn lower_columns(&self) -> Vec<Vec<(usize, f64)>> {
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.n];
        for (i, row) in self.rows.iter().enumerate() {
            for &(j, v) in row {
                if j <= i {
                    cols[j].push((i, v));
                }
            }
        }
        for col in &mut cols {
            col.sort_unstable_by_key(|&(r, _)| r);
        }
        cols
    }
}

/// Computes the Cholesky fill-in pattern.
///
/// Input: the lower-triangular pattern of `A` — for each column `j`, the
/// sorted row indices `>= j` (including the diagonal). Output: the pattern
/// of `L` per column, sorted, including fill entries.
///
/// Standard elimination-tree union: processing columns in ascending order,
/// each column's pattern (minus its head) is merged into its parent —
/// the smallest row index below the diagonal.
///
/// # Panics
///
/// Panics if a column's pattern does not start with its diagonal.
pub fn symbolic_cholesky(lower_pattern: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = lower_pattern.len();
    let mut pattern: Vec<Vec<usize>> = lower_pattern.to_vec();
    for j in 0..n {
        pattern[j].sort_unstable();
        pattern[j].dedup();
        assert_eq!(
            pattern[j].first().copied(),
            Some(j),
            "column {j} must include its diagonal"
        );
        // Parent in the elimination tree: first sub-diagonal entry.
        let Some(&parent) = pattern[j].get(1) else {
            continue;
        };
        // L's column `parent` inherits the rest of column j's pattern.
        let inherited: Vec<usize> = pattern[j][1..].to_vec();
        let col = &mut pattern[parent];
        col.extend(inherited);
        col.sort_unstable();
        col.dedup();
    }
    pattern
}

/// Reference dense Cholesky used by tests (and usable by callers to check
/// simulated factors). Returns the lower-triangular factor as dense rows.
///
/// # Panics
///
/// Panics if the matrix is not positive definite.
#[allow(clippy::needless_range_loop)] // indexing two factors at once
pub fn dense_cholesky(a: &SymSparse) -> Vec<Vec<f64>> {
    let n = a.n;
    let mut m = vec![vec![0.0f64; n]; n];
    for (i, row) in a.rows.iter().enumerate() {
        for &(j, v) in row {
            m[i][j] = v;
        }
    }
    let mut l = vec![vec![0.0f64; n]; n];
    for j in 0..n {
        let mut d = m[j][j];
        for k in 0..j {
            d -= l[j][k] * l[j][k];
        }
        assert!(d > 0.0, "matrix not positive definite at column {j}");
        l[j][j] = d.sqrt();
        for i in (j + 1)..n {
            let mut s = m[i][j];
            for k in 0..j {
                s -= l[i][k] * l[j][k];
            }
            l[i][j] = s / l[j][j];
        }
    }
    l
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    #[test]
    fn random_spd_is_symmetric() {
        let a = SymSparse::random_spd(32, 3, 7);
        for (i, row) in a.rows.iter().enumerate() {
            for &(j, v) in row {
                let back = a.rows[j]
                    .iter()
                    .find(|&&(c, _)| c == i)
                    .map(|&(_, v)| v)
                    .expect("symmetric entry");
                assert_eq!(v, back);
            }
        }
    }

    #[test]
    fn random_spd_is_positive_definite() {
        // Dense Cholesky succeeding is the PD certificate.
        let a = SymSparse::random_spd(24, 4, 3);
        let _ = dense_cholesky(&a);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = SymSparse::random_spd(16, 2, 11);
        let x: Vec<f64> = (0..16).map(|i| (i as f64) * 0.25 - 1.0).collect();
        let y = a.matvec(&x);
        for i in 0..16 {
            let mut want = 0.0;
            for &(j, v) in &a.rows[i] {
                want += v * x[j];
            }
            assert!((y[i] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn symbolic_pattern_contains_original_and_fill() {
        // A "star + chain" that forces fill: col 0 connects to 2 and 3.
        // Eliminating 0 fills L[3][2].
        let pattern = vec![vec![0, 2, 3], vec![1, 2], vec![2], vec![3]];
        let l = symbolic_cholesky(&pattern);
        assert!(l[2].contains(&3), "expected fill at (3,2): {l:?}");
        // Original entries survive.
        assert!(l[0].contains(&2) && l[0].contains(&3));
    }

    #[test]
    fn symbolic_matches_numeric_support() {
        // Every numerically nonzero entry of dense L must be inside the
        // symbolic pattern.
        let a = SymSparse::random_spd(24, 3, 9);
        let lower: Vec<Vec<usize>> = a
            .lower_columns()
            .iter()
            .map(|col| col.iter().map(|&(r, _)| r).collect())
            .collect();
        let pat = symbolic_cholesky(&lower);
        let l = dense_cholesky(&a);
        for j in 0..a.n {
            for i in j..a.n {
                if l[i][j].abs() > 1e-14 {
                    assert!(
                        pat[j].contains(&i),
                        "numeric nonzero ({i},{j}) not in pattern"
                    );
                }
            }
        }
    }

    #[test]
    fn dense_cholesky_reconstructs() {
        let a = SymSparse::random_spd(16, 3, 5);
        let l = dense_cholesky(&a);
        for i in 0..a.n {
            for j in 0..a.n {
                let want = a.rows[i]
                    .iter()
                    .find(|&&(c, _)| c == j)
                    .map(|&(_, v)| v)
                    .unwrap_or(0.0);
                let got: f64 = (0..a.n).map(|k| l[i][k] * l[j][k]).sum();
                assert!(
                    (want - got).abs() < 1e-9,
                    "LL^T mismatch at ({i},{j}): {want} vs {got}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn symbolic_requires_diagonal() {
        symbolic_cholesky(&[vec![1]]);
    }
}
