//! Output checks: every recorded path is a walk the request could have
//! taken on the snapshot it was served from.

use crate::workloads::Req;
use flexiwalker::prelude::*;

/// 64-bit FNV-1a, folded over every node of every path: the cheap check
/// applied to all ops, compared across runs of one seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    fn word(&mut self, w: u32) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds in one report's paths, each prefixed by its length so that
    /// moving a node between neighbouring paths changes the digest.
    pub fn paths(&mut self, paths: &[Vec<NodeId>]) {
        for path in paths {
            self.word(path.len() as u32);
            for &v in path {
                self.word(v);
            }
        }
    }
}

/// The shape every report must have, whatever was recorded: one path per
/// query, starting at the query, at most `steps + 1` nodes long.
pub fn check_shape(req: &Req, max_steps: usize, report: &RunReport) -> Result<(), String> {
    let paths = report
        .paths
        .as_ref()
        .ok_or_else(|| "report carries no paths".to_string())?;
    if paths.len() != req.queries.len() || report.queries != req.queries.len() {
        return Err(format!(
            "{} paths for {} queries",
            paths.len(),
            req.queries.len()
        ));
    }
    let mut steps = 0u64;
    for (path, &query) in paths.iter().zip(&req.queries) {
        if path.first() != Some(&query) {
            return Err(format!(
                "path starts at {:?}, query was {query}",
                path.first()
            ));
        }
        if path.len() > max_steps + 1 {
            return Err(format!(
                "path of {} nodes, limit {}",
                path.len(),
                max_steps + 1
            ));
        }
        steps += path.len() as u64 - 1;
    }
    if steps != report.steps_taken {
        return Err(format!(
            "paths hold {steps} steps, report counts {}",
            report.steps_taken
        ));
    }
    Ok(())
}

/// The full check: every hop is an edge of `graph` (the snapshot the
/// report was served from); under a time window, the hops can be stamped
/// with non-decreasing times inside the window, starting at its `t0`.
///
/// A path records nodes, not edge ids, and parallel edges may carry
/// different stamps: taking the earliest admissible stamp at each hop is
/// feasible whenever any stamping is, since it leaves the walk clock
/// lowest.
pub fn check_hops(graph: &Csr, req: &Req, report: &RunReport) -> Result<(), String> {
    let paths = report.paths.as_ref().ok_or("report carries no paths")?;
    for path in paths {
        let mut clock = req.window.map_or(0, |(t0, _)| t0);
        for hop in path.windows(2) {
            let (a, b) = (hop[0], hop[1]);
            let Some((t0, t1)) = req.window else {
                if !graph.has_edge(a, b) {
                    return Err(format!("hop {a} -> {b} is not an edge"));
                }
                continue;
            };
            let earliest = graph
                .edge_range(a)
                .filter(|&e| graph.edge_target(e) == b)
                .map(|e| graph.time(e))
                .filter(|&t| t >= clock && t >= t0 && t < t1)
                .min();
            clock = earliest.ok_or_else(|| {
                format!("hop {a} -> {b}: no edge stamped in [{t0}, {t1}) at or after {clock}")
            })?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(paths: Vec<Vec<NodeId>>) -> RunReport {
        // The cheapest way to a well-formed report is a real run.
        let csr = CsrBuilder::new(4)
            .timestamped_edge(0, 1, 1.0, 10)
            .timestamped_edge(0, 1, 1.0, 50)
            .timestamped_edge(1, 2, 1.0, 40)
            .timestamped_edge(2, 3, 1.0, 45)
            .build()
            .unwrap();
        let mut session = FlexiWalker::builder().workers(1).build();
        let g = session.load_graph(csr);
        let mut r = session
            .run(WalkRequest::new(&g, "uniform", &[0u32]).steps(1))
            .unwrap();
        r.queries = paths.len();
        r.steps_taken = paths.iter().map(|p| p.len() as u64 - 1).sum();
        r.paths = Some(paths);
        r
    }

    fn graph() -> Csr {
        CsrBuilder::new(4)
            .timestamped_edge(0, 1, 1.0, 10)
            .timestamped_edge(0, 1, 1.0, 50)
            .timestamped_edge(1, 2, 1.0, 40)
            .timestamped_edge(2, 3, 1.0, 45)
            .build()
            .unwrap()
    }

    fn req(queries: Vec<NodeId>, window: Option<(u64, u64)>) -> Req {
        Req {
            walker: "uniform",
            window,
            queries,
            steps: 3,
        }
    }

    #[test]
    fn shape_catches_wrong_start_length_and_count() {
        assert!(check_shape(&req(vec![0], None), 3, &report(vec![vec![0, 1, 2]])).is_ok());
        assert!(check_shape(&req(vec![1], None), 3, &report(vec![vec![0, 1]])).is_err());
        assert!(check_shape(&req(vec![0], None), 1, &report(vec![vec![0, 1, 2]])).is_err());
        assert!(check_shape(&req(vec![0, 0], None), 3, &report(vec![vec![0]])).is_err());
        let mut miscounted = report(vec![vec![0, 1]]);
        miscounted.steps_taken = 5;
        assert!(check_shape(&req(vec![0], None), 3, &miscounted).is_err());
    }

    #[test]
    fn hops_must_be_edges() {
        let g = graph();
        assert!(check_hops(&g, &req(vec![0], None), &report(vec![vec![0, 1, 2, 3]])).is_ok());
        assert!(check_hops(&g, &req(vec![0], None), &report(vec![vec![0, 2]])).is_err());
    }

    #[test]
    fn windowed_hops_need_a_forward_stamping() {
        let g = graph();
        // 0 -10-> 1 -40-> 2 -45-> 3 is forward in time inside [0, 100).
        let whole = report(vec![vec![0, 1, 2, 3]]);
        assert!(check_hops(&g, &req(vec![0], Some((0, 100))), &whole).is_ok());
        // From t0 = 20 the only 0 -> 1 edge left is stamped 50, after
        // which 1 -40-> 2 lies in the past.
        assert!(check_hops(&g, &req(vec![0], Some((20, 100))), &whole).is_err());
        assert!(check_hops(
            &g,
            &req(vec![0], Some((20, 100))),
            &report(vec![vec![0, 1]])
        )
        .is_ok());
        // [0, 45) excludes the 2 -> 3 edge (half-open).
        assert!(check_hops(&g, &req(vec![0], Some((0, 45))), &whole).is_err());
    }

    #[test]
    fn digest_depends_on_path_boundaries() {
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        a.paths(&[vec![1, 2], vec![3]]);
        b.paths(&[vec![1], vec![2, 3]]);
        assert_ne!(a, b);
        let mut c = Fnv::default();
        c.paths(&[vec![1, 2], vec![3]]);
        assert_eq!(a, c);
    }
}
