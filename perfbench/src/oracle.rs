//! Brute-force ground truth and the rule a served answer is judged by.
//!
//! The oracle is the direct form of `knn_ref::oracle::exact`: every
//! distance evaluated with [`DistanceKind::eval`], candidates ordered by
//! `(distance, index)`. It selects the top `k` with a linear-time
//! partition instead of a full sort, which gives the same rows (the
//! test below checks it against `knn_ref`) at a cost the benchmark can
//! pay for 100 000-point reference sets.
//!
//! A reply row passes when, rank by rank, its id equals the oracle's,
//! or it names a different neighbour whose exact `f64` distance is
//! within the lane's tolerance of the oracle's distance at that rank (a
//! genuine near-tie, the rule of `tests/precision_agreement.rs`); the
//! returned distance must also be within that tolerance (the rule of
//! `crates/gsknn-router/tests/e2e.rs`).

use dataset::{DistanceKind, PointSet};
use gsknn_core::GsknnScalar;
use knn_select::Neighbor;

/// Exact `k` nearest rows of `refs` for each point of `queries`, under
/// squared L2, sorted by `(distance, index)`.
pub fn brute_force(refs: &PointSet, queries: &PointSet, k: usize) -> Vec<Vec<Neighbor<f64>>> {
    let q_ids: Vec<usize> = (0..queries.len()).collect();
    brute_force_rows(refs, queries, &q_ids, k)
}

/// [`brute_force`] for the listed query rows only, split over the
/// available cores.
pub fn brute_force_rows(
    refs: &PointSet,
    queries: &PointSet,
    q_ids: &[usize],
    k: usize,
) -> Vec<Vec<Neighbor<f64>>> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let chunk = q_ids.len().div_ceil(workers).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = q_ids
            .chunks(chunk)
            .map(|ids| {
                s.spawn(move || {
                    let mut cands: Vec<Neighbor<f64>> = Vec::with_capacity(refs.len());
                    ids.iter()
                        .map(|&qi| {
                            let q = queries.point(qi);
                            cands.clear();
                            cands.extend((0..refs.len()).map(|j| {
                                Neighbor::new(DistanceKind::SqL2.eval(q, refs.point(j)), j as u32)
                            }));
                            let kk = k.min(cands.len());
                            if kk < cands.len() {
                                cands.select_nth_unstable_by(kk, Neighbor::cmp_dist_idx);
                            }
                            let mut row = cands[..kk].to_vec();
                            row.sort_unstable_by(Neighbor::cmp_dist_idx);
                            row
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle worker panicked"))
            .collect()
    })
}

/// Relative tolerance of a lane: `1e-6` for `f64` (the router e2e
/// test), the element type's `DIST_TOL` (`1e-4`) for `f32`.
fn tolerance<T: GsknnScalar>() -> f64 {
    T::DIST_TOL.to_f64().max(1e-6)
}

/// Ranks of `got` that agree with the oracle row `want` for query
/// point `q` (see the module docs); the row passes when every rank of
/// `want` agrees.
pub fn agreeing_ranks<T: GsknnScalar>(
    got: &[Neighbor<T>],
    want: &[Neighbor<f64>],
    q: &[f64],
    refs: &PointSet,
) -> usize {
    let tol = tolerance::<T>();
    let near = |a: f64, b: f64| (a - b).abs() <= tol * (1.0 + b.abs());
    got.iter()
        .zip(want)
        .filter(|(g, w)| {
            let same = if g.idx == w.idx {
                true
            } else if g.idx == u32::MAX || w.idx == u32::MAX || g.idx as usize >= refs.len() {
                false
            } else {
                near(
                    DistanceKind::SqL2.eval(q, refs.point(g.idx as usize)),
                    w.dist,
                )
            };
            same && near(g.dist.to_f64(), w.dist)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_select::NeighborTable;

    #[test]
    fn matches_knn_ref_oracle() {
        let x = dataset::uniform(300, 5, 11);
        let ids: Vec<usize> = (0..300).collect();
        let q: Vec<usize> = (0..300).step_by(7).collect();
        let want: NeighborTable<f64> = knn_ref::oracle::exact(&x, &q, &ids, 9, DistanceKind::SqL2);
        let got = brute_force_rows(&x, &x, &q, 9);
        for (i, row) in got.iter().enumerate() {
            assert_eq!(row.as_slice(), want.row(i), "row {i}");
        }
    }

    #[test]
    fn judges_ids_ties_and_distances() {
        let refs = PointSet::from_vec(1, 3, vec![0.0, 1.0, -1.0]);
        let q = [0.0];
        let want = brute_force(&refs, &PointSet::from_vec(1, 1, vec![0.0]), 3);
        assert_eq!(want[0].iter().map(|n| n.idx).collect::<Vec<_>>(), [0, 1, 2]);
        let good = want[0].clone();
        assert_eq!(agreeing_ranks(&good, &want[0], &q, &refs), 3);
        // ids 1 and 2 tie at distance 1: swapping them is admissible
        let swapped = vec![good[0], good[2], good[1]];
        assert_eq!(agreeing_ranks(&swapped, &want[0], &q, &refs), 3);
        // a wrong distance fails its rank
        let mut off = good.clone();
        off[1].dist = 1.5;
        assert_eq!(agreeing_ranks(&off, &want[0], &q, &refs), 2);
        // a non-tied wrong id fails its rank
        let wrong = vec![good[1], good[0], good[2]];
        assert_eq!(agreeing_ranks(&wrong, &want[0], &q, &refs), 1);
    }
}
