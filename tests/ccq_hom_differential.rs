//! The counts that run before the CCQ searches never change an answer.
//!
//! On the ⟨Q⟩ rows, relation counts, inequalities checked at bind time and
//! the shape tests between complete CCQs settle most homomorphism questions
//! before a search runs.  This suite checks four CCQ predicates —
//! `exists_hom`, `exists_surjective_hom`, `iso::are_isomorphic` and
//! `homomorphically_covers` — against a brute-force reference that shares
//! no code with the search engine: it enumerates every variable map between
//! two CCQs and checks the definitions directly.  The CCQs are members of
//! the complete descriptions of seeded CQs and UCQs with 0–2 free
//! variables, up to 6 variables and widths 1–3.
//!
//! The ⟨Q⟩ rows call `exists_hom`, `exists_surjective_hom` and
//! `homomorphically_covers` on the flat members of a
//! `complete::Description` rather than on CCQs, and those members take
//! their shape test's variable and distinct-atom counts and their
//! occurrence counts off the description, and their injectivity from
//! `Inequalities::All`.  So the same sampled members are also read as
//! `Description::member`s, and each of the three predicates on them must
//! equal the reference on the matching materialised CCQs.

use annot_hom::{iso, kinds};
use annot_query::complete::{complete_description_ucq, Description};
use annot_query::generator::{GeneratorConfig, QueryGenerator, QueryShape};
use annot_query::{Atom, Ccq, QVar, Ucq};
use std::collections::BTreeSet;

/// Calls `visit` on every homomorphism from `source` to `target`, as the
/// image of each source variable: every variable map that sends the head
/// to the head positionally, keeps the inequalities and sends every atom to
/// an atom.  A kept inequality has distinct images, which the target
/// requires to differ unless one of them is free.
fn for_each_hom(source: &Ccq, target: &Ccq, visit: &mut dyn FnMut(&[QVar])) {
    let (s, t) = (source.cq(), target.cq());
    if s.free_vars().len() != t.free_vars().len() {
        return;
    }
    let (n, m) = (s.num_vars(), t.num_vars() as u32);
    let mut image = vec![QVar(0); n];
    loop {
        let h = |v: &QVar| image[v.0 as usize];
        let head = s
            .free_vars()
            .iter()
            .map(h)
            .eq(t.free_vars().iter().copied());
        let kept = source.inequalities().iter().all(|(a, b)| {
            let (ha, hb) = (h(a), h(b));
            ha != hb && (t.is_free(ha) || t.is_free(hb) || target.must_differ(ha, hb))
        });
        let atoms = || s.atoms().iter().map(|a| apply(&image, a));
        if head && kept && atoms().all(|a| t.atoms().contains(&a)) {
            visit(&image);
        }
        // The next map in odometer order, or the end.
        let Some(i) = (0..n).find(|&i| image[i].0 + 1 < m) else {
            return;
        };
        image[i].0 += 1;
        for digit in &mut image[..i] {
            *digit = QVar(0);
        }
    }
}

fn apply(image: &[QVar], atom: &Atom) -> Atom {
    Atom::new(
        atom.relation,
        atom.args.iter().map(|v| image[v.0 as usize]).collect(),
    )
}

fn count(atoms: impl Iterator<Item = Atom>, atom: &Atom) -> usize {
    atoms.filter(|a| a == atom).count()
}

/// The brute-force answers for one ordered pair of CCQs.
#[derive(Default)]
struct Reference {
    hom: bool,
    surjective: bool,
    isomorphic: bool,
    /// The target atoms in the image of some homomorphism.
    covered: BTreeSet<usize>,
}

fn reference(source: &Ccq, target: &Ccq) -> Reference {
    let (s, t) = (source.cq(), target.cq());
    let mut out = Reference::default();
    for_each_hom(source, target, &mut |image| {
        out.hom = true;
        let images = || s.atoms().iter().map(|a| apply(image, a));
        // Surjective: the image multiset contains the target's atom multiset.
        let onto =
            (t.atoms().iter()).all(|a| count(images(), a) >= count(t.atoms().iter().cloned(), a));
        out.surjective |= onto;
        // An isomorphism is bijective on variables, maps the atom multiset
        // exactly onto the target's and the inequalities exactly onto the
        // target's.
        let renamed: BTreeSet<(QVar, QVar)> = (source.inequalities().iter())
            .map(|&(a, b)| {
                let (ha, hb) = (image[a.0 as usize], image[b.0 as usize]);
                (ha.min(hb), ha.max(hb))
            })
            .collect();
        let bijective = s.num_vars() == t.num_vars()
            && (0..s.num_vars()).all(|i| !image[..i].contains(&image[i]));
        out.isomorphic |= bijective
            && s.num_atoms() == t.num_atoms()
            && onto
            && &renamed == target.inequalities();
        for (i, a) in t.atoms().iter().enumerate() {
            if images().any(|b| &b == a) {
                out.covered.insert(i);
            }
        }
    });
    out
}

/// The indices of every `step`-th of `len` members from the last, at most
/// `cap` of them.  The last member of ⟨u⟩ keeps every variable of `u`
/// distinct.
fn sample(len: usize, cap: usize) -> impl Iterator<Item = usize> {
    let step = len.div_ceil(cap).max(1);
    (0..len).rev().step_by(step)
}

/// Two seeded UCQs with 0–2 free variables.  Every sixth pair is two
/// 5-leaf stars (6 variables).  In the others, each side has 1–3 binary
/// atoms per member over a pool of 2–6 variables, and width 1–3.
fn ucq_pair(seed: u64) -> (Ucq, Ucq) {
    let star = seed % 6 == 0;
    let free = (seed % 3) as usize;
    let ucq = |shift: u64| {
        let mut generator = QueryGenerator::new(GeneratorConfig {
            num_atoms: if star {
                5
            } else {
                1 + (seed >> shift) as usize % 3
            },
            shape: if star {
                QueryShape::Star
            } else {
                QueryShape::Random
            },
            num_relations: 1 + (seed % 2) as usize,
            var_pool: 2 + (seed % 5) as usize,
            free_vars: free,
            seed: seed + shift,
        });
        // A member with fewer variables than the head asks for gets fewer
        // free variables; a UCQ keeps the members with all of them.
        let width = if star {
            1
        } else {
            1 + (seed >> shift >> 2) as usize % 3
        };
        let members = std::iter::repeat_with(|| generator.cq())
            .filter(|q| q.free_vars().len() == free)
            .take(width);
        Ucq::new(members.collect::<Vec<_>>())
    };
    (ucq(1), ucq(3))
}

#[test]
fn ccq_predicates_agree_with_brute_force_on_complete_descriptions() {
    let mut tally = [0usize; 4];
    let mut most_vars = 0;
    for seed in 0..60u64 {
        let (u1, u2) = ucq_pair(seed);
        // Fewer members of the stars' large descriptions keep the
        // brute force, up to 6⁶ maps a pair, fast.
        let cap = if seed % 6 == 0 { 6 } else { 14 };
        // The same members twice: materialised as CCQs, and read in place
        // from each side's flat description.
        let (mut members, mut flat) = (Vec::new(), Vec::new());
        let descriptions = [&u1, &u2].map(|u| Description::new(u.disjuncts()));
        for (u, description) in [&u1, &u2].into_iter().zip(&descriptions) {
            let ccqs = complete_description_ucq(u);
            for i in sample(ccqs.len(), cap) {
                members.push(ccqs.disjuncts()[i].clone());
                flat.push(description.member(i));
            }
        }
        most_vars = (members.iter().map(|m| m.cq().num_vars())).fold(most_vars, usize::max);
        for (target, flat_target) in members.iter().zip(&flat) {
            let mut covered = BTreeSet::new();
            for (source, flat_source) in members.iter().zip(&flat) {
                let expected = reference(source, target);
                let context = || format!("seed {seed}: {source} → {target}");
                assert_eq!(
                    kinds::exists_hom(source, target),
                    expected.hom,
                    "hom, {}",
                    context()
                );
                assert_eq!(
                    kinds::exists_surjective_hom(source, target),
                    expected.surjective,
                    "surjective hom, {}",
                    context()
                );
                assert_eq!(
                    iso::are_isomorphic(source, target),
                    expected.isomorphic,
                    "isomorphism, {}",
                    context()
                );
                assert_eq!(
                    kinds::exists_hom(flat_source, flat_target),
                    expected.hom,
                    "member hom, {}",
                    context()
                );
                assert_eq!(
                    kinds::exists_surjective_hom(flat_source, flat_target),
                    expected.surjective,
                    "member surjective hom, {}",
                    context()
                );
                tally[0] += expected.hom as usize;
                tally[1] += expected.surjective as usize;
                tally[2] += expected.isomorphic as usize;
                covered.extend(expected.covered);
            }
            let covers = covered.len() == target.cq().num_atoms();
            assert_eq!(
                kinds::homomorphically_covers(&members, target),
                covers,
                "covering, seed {seed}: {target}"
            );
            assert_eq!(
                kinds::homomorphically_covers(&flat, flat_target),
                covers,
                "member covering, seed {seed}: {target}"
            );
            tally[3] += covers as usize;
        }
    }
    assert_eq!(most_vars, 6);
    // Every predicate holds on many pairs and fails on many more.
    assert!(tally.iter().all(|&n| n > 100), "{tally:?}");
}
