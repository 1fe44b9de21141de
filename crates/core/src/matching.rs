//! Hall's condition with multiplicities, as a maximum flow.
//!
//! The unique-surjection criterion `↠_∞` of Sec. 5.3 (Thm. 5.17) asks for a
//! *distinct* member of `⟨Q₂⟩` surjecting onto each member of `⟨Q₁⟩`; the
//! paper's proof invokes Hall's marriage theorem.  Read over isomorphism
//! classes, that is a flow: each `⟨Q₁⟩` class supplies its multiplicity,
//! each `⟨Q₂⟩` class takes at most its multiplicity, and units flow along
//! the class pairs with a surjection.  A bipartite matching is the case of
//! unit supplies and capacities; the member-wise sufficient condition of
//! [`crate::ucq::local`] uses it.
//!
//! [`maximum_flow`] is Kuhn's augmenting-path algorithm on the graph that
//! copies each vertex as often as its supply or capacity says, without
//! building the copies: the copies of a vertex are interchangeable, so a
//! path found for one copy carries as many units as its bottleneck allows.
//! [`saturates_left`] is the unit case on bit sets, for at most 64 right
//! vertices.

/// A maximum flow from the left vertices, each with its `supply`, to the
/// right vertices, each taking at most its `capacity`, along `edges`:
/// `(left, right)` pairs, grouped by left vertex in increasing order, each
/// unbounded.  Returns the flow along each edge.
pub fn maximum_flow(supply: &[u64], capacity: &[u64], edges: &[(usize, usize)]) -> Vec<u64> {
    // Per left vertex: its edges, at `out[l]..out[l + 1]`.
    let mut out = vec![0; supply.len() + 1];
    for &(l, _) in edges {
        out[l + 1] += 1;
    }
    for l in 0..supply.len() {
        out[l + 1] += out[l];
    }
    // Per right vertex: the edges into it, at `into[starts[r]..starts[r + 1]]`.
    let mut starts = vec![0; capacity.len() + 1];
    for &(_, r) in edges {
        starts[r + 1] += 1;
    }
    for r in 0..capacity.len() {
        starts[r + 1] += starts[r];
    }
    let mut into = vec![0; edges.len()];
    let mut fill = starts.clone();
    for (e, &(_, r)) in edges.iter().enumerate() {
        into[fill[r]] = e;
        fill[r] += 1;
    }
    let mut state = Augment {
        edges,
        out: &out,
        capacity,
        starts: &starts,
        into: &into,
        load: vec![0; capacity.len()],
        visited: vec![false; capacity.len()],
        flow: vec![0; edges.len()],
    };
    for (l, &units) in supply.iter().enumerate() {
        let mut remaining = units;
        while remaining > 0 {
            state.visited.fill(false);
            let pushed = state.augment(l, remaining);
            if pushed == 0 {
                break;
            }
            remaining -= pushed;
        }
    }
    state.flow
}

/// Whether [`maximum_flow`] routes every left vertex's whole supply:
/// Hall's condition with multiplicities.
pub fn saturates_supply(supply: &[u64], capacity: &[u64], edges: &[(usize, usize)]) -> bool {
    let flow = maximum_flow(supply, capacity, edges);
    flow.iter().sum::<u64>() == supply.iter().sum::<u64>()
}

/// Whether every left vertex can be matched to a distinct right vertex,
/// where bit `r` of `rows[l]` says left vertex `l` may take right vertex
/// `r`: Kuhn's augmenting paths over at most 64 right vertices, on bit
/// sets and the stack, so it allocates nothing.  More than 64 left
/// vertices never fit.
pub fn saturates_left(rows: &[u64]) -> bool {
    // Per right vertex: the left vertex matched to it, if any.
    let mut owner = [usize::MAX; 64];
    rows.len() <= 64 && (0..rows.len()).all(|l| augment_bits(rows, l, &mut 0, &mut owner))
}

/// Matches left vertex `l`, moving earlier matches along an augmenting
/// path if need be; `visited` holds the right vertices this search reached.
fn augment_bits(rows: &[u64], l: usize, visited: &mut u64, owner: &mut [usize; 64]) -> bool {
    loop {
        let open = rows[l] & !*visited;
        if open == 0 {
            return false;
        }
        let r = open.trailing_zeros() as usize;
        *visited |= 1 << r;
        if owner[r] == usize::MAX || augment_bits(rows, owner[r], visited, owner) {
            owner[r] = l;
            return true;
        }
    }
}

/// The state of one [`maximum_flow`].
struct Augment<'a> {
    edges: &'a [(usize, usize)],
    out: &'a [usize],
    capacity: &'a [u64],
    starts: &'a [usize],
    into: &'a [usize],
    /// Per right vertex: the units it takes.
    load: Vec<u64>,
    /// Per right vertex: whether the current search reached it.
    visited: Vec<bool>,
    flow: Vec<u64>,
}

impl Augment<'_> {
    /// Sends up to `limit` more units out of left vertex `l` along one
    /// augmenting path: to a right vertex with room, or to a full one whose
    /// other senders move as many units elsewhere.  Returns the units sent.
    fn augment(&mut self, l: usize, limit: u64) -> u64 {
        for e in self.out[l]..self.out[l + 1] {
            let r = self.edges[e].1;
            if self.visited[r] {
                continue;
            }
            self.visited[r] = true;
            let room = self.capacity[r] - self.load[r];
            if room > 0 {
                let pushed = limit.min(room);
                self.load[r] += pushed;
                self.flow[e] += pushed;
                return pushed;
            }
            for i in self.starts[r]..self.starts[r + 1] {
                let other = self.into[i];
                let carried = self.flow[other];
                if carried == 0 {
                    continue;
                }
                let pushed = self.augment(self.edges[other].0, limit.min(carried));
                if pushed > 0 {
                    self.flow[other] -= pushed;
                    self.flow[e] += pushed;
                    return pushed;
                }
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit sets of right vertices, one per left vertex.
    fn rows(adjacency: &[&[usize]]) -> Vec<u64> {
        (adjacency.iter())
            .map(|rights| rights.iter().fold(0, |row, &r| row | 1 << r))
            .collect()
    }

    #[test]
    fn perfect_matching_found() {
        // 0-{0,1}, 1-{1}, 2-{0,2}
        assert!(saturates_left(&rows(&[&[0, 1], &[1], &[0, 2]])));
    }

    #[test]
    fn saturation_fails_when_neighbourhood_too_small() {
        // Hall violation: three left vertices all only compatible with {0,1}.
        assert!(!saturates_left(&rows(&[&[0, 1], &[0, 1], &[0, 1]])));
        // 65 left vertices never fit into 64 right ones.
        assert!(!saturates_left(&[u64::MAX; 65]));
        assert!(saturates_left(&[u64::MAX; 64]));
    }

    #[test]
    fn empty_graphs() {
        assert!(saturates_left(&[]));
        assert!(!saturates_left(&[0]));
    }

    #[test]
    fn augmenting_paths_reassign() {
        // 0-{0}, 1-{0,1}: greedy would block without augmentation.
        assert!(saturates_left(&rows(&[&[0], &[0, 1]])));
        // 0-{0,1}, 1-{0}: the first match moves over.
        assert!(saturates_left(&rows(&[&[0, 1], &[0]])));
        // 0-{0}, 1-{0}: impossible.
        assert!(!saturates_left(&rows(&[&[0], &[0]])));
        // A path through right vertex 63.
        assert!(saturates_left(&rows(&[&[0, 63], &[0], &[63, 5]])));
    }

    #[test]
    fn supplies_and_capacities_act_as_copies() {
        // Left 0 supplies 3 to {0, 1}, left 1 supplies 2 to {1}; right 0
        // takes 2, right 1 takes 3: routing 0's surplus to right 0 first
        // leaves room for left 1.
        let edges = [(0, 1), (0, 0), (1, 1)];
        assert!(saturates_supply(&[3, 2], &[2, 3], &edges));
        let flow = maximum_flow(&[3, 2], &[2, 3], &edges);
        assert_eq!(flow.iter().sum::<u64>(), 5);
        // One unit more on the left is one too many.
        assert!(!saturates_supply(&[3, 3], &[2, 3], &edges));
        // Zero supplies and capacities are fine.
        assert!(saturates_supply(&[0, 0], &[0, 0], &edges));
        assert!(!saturates_supply(&[1], &[0, 0], &edges[..2]));
    }

    /// The edges of `adjacency`, where `adjacency[l]` lists the right
    /// vertices of left vertex `l`.
    fn edges_of(adjacency: &[Vec<usize>]) -> Vec<(usize, usize)> {
        (adjacency.iter().enumerate())
            .flat_map(|(l, rights)| rights.iter().map(move |&r| (l, r)))
            .collect()
    }

    /// Kuhn's algorithm on unit vertices, as a reference: the size of a
    /// maximum matching.
    fn matching_size(adjacency: &[Vec<usize>], num_right: usize) -> usize {
        fn augment(
            l: usize,
            adj: &[Vec<usize>],
            matched: &mut [Option<usize>],
            seen: &mut [bool],
        ) -> bool {
            for &r in &adj[l] {
                if !seen[r] {
                    seen[r] = true;
                    if matched[r].map_or(true, |other| augment(other, adj, matched, seen)) {
                        matched[r] = Some(l);
                        return true;
                    }
                }
            }
            false
        }
        let mut matched = vec![None; num_right];
        (0..adjacency.len())
            .filter(|&l| augment(l, adjacency, &mut matched, &mut vec![false; num_right]))
            .count()
    }

    #[test]
    fn flows_equal_matchings_of_the_copies() {
        // Blowing each vertex up into as many copies as its supply or
        // capacity gives a bipartite graph whose maximum matchings are as
        // large as the maximum flows.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut draw = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for _ in 0..300 {
            let (left, right) = (1 + draw(4) as usize, 1 + draw(4) as usize);
            let supply: Vec<u64> = (0..left).map(|_| draw(4)).collect();
            let capacity: Vec<u64> = (0..right).map(|_| draw(4)).collect();
            let adjacency: Vec<Vec<usize>> = (0..left)
                .map(|_| (0..right).filter(|_| draw(3) > 0).collect())
                .collect();
            let copies = |counts: &[u64]| -> Vec<usize> {
                (counts.iter().enumerate())
                    .flat_map(|(v, &c)| std::iter::repeat(v).take(c as usize))
                    .collect()
            };
            let (lefts, rights) = (copies(&supply), copies(&capacity));
            let blown: Vec<Vec<usize>> = (lefts.iter())
                .map(|&l| {
                    (0..rights.len())
                        .filter(|&r| adjacency[l].contains(&rights[r]))
                        .collect()
                })
                .collect();
            let size = matching_size(&blown, rights.len());
            // The bit-set matching of the blown-up graph, when it fits.
            if rights.len() <= 64 {
                let bits: Vec<u64> = (blown.iter())
                    .map(|rs| rs.iter().fold(0, |row, &r| row | 1 << r))
                    .collect();
                assert_eq!(saturates_left(&bits), size == lefts.len());
            }
            let edges = edges_of(&adjacency);
            let flow = maximum_flow(&supply, &capacity, &edges);
            assert_eq!(flow.iter().sum::<u64>() as usize, size);
            assert_eq!(
                saturates_supply(&supply, &capacity, &edges),
                size == lefts.len()
            );
            // The flow keeps every supply and capacity.
            let mut sent = vec![0; left];
            let mut taken = vec![0; right];
            for (&(l, r), &units) in edges.iter().zip(&flow) {
                sent[l] += units;
                taken[r] += units;
            }
            assert!(sent.iter().zip(&supply).all(|(s, u)| s <= u));
            assert!(taken.iter().zip(&capacity).all(|(t, c)| t <= c));
        }
    }
}
