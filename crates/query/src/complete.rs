//! Complete descriptions ⟨Q⟩ of CQs and UCQs (Sec. 4.6 and 5 of the paper).
//!
//! The complete description of a CQ `Q` is the multiset of CCQs obtained as
//! follows: for every partition `π` of the variables of `Q`, free ones
//! included, identify the variables within each block and attach an
//! inequality between every pair of variables that remain distinct.  A block
//! that holds a free variable keeps its name, so a member may let existential
//! variables take a free variable's value.  A member in which two free
//! variables merged repeats a variable in its head; homomorphisms bind heads
//! positionally, so such members only map onto each other.  A CQ with `n`
//! distinct variables has `B(n)` members, and a Boolean query's members are
//! those of the partitions of its existential variables.
//!
//! The CCQs partition the valuation space of `Q` according to which
//! variables coincide, so the result is equivalent to `Q` over every
//! semiring (`Q ≡_K ⟨Q⟩`): `Q(t) = ⟨Q⟩(t)` for every output tuple `t`.
//!
//! Complete descriptions are the key device behind the UCQ-containment
//! criteria `↪_∞`, `↪_k`, `↠_∞` and `⇉₂` (Sec. 5.2–5.4), and behind the
//! small-model procedure of Thm. 4.17.
//!
//! # One flat description
//!
//! [`Description`] holds ⟨Q⟩ of a union in one argument buffer: each
//! member's atom arguments, as member variables in its disjunct's atom
//! order, then its head.  Per member it stores the disjunct, the offset of
//! its arguments, its variable count and, per atom, the number of distinct
//! atoms with that atom's relation, which the shape tests read.  A
//! [`Member`] is a view of one member.  It has no names, no schema handle
//! and no inequality set of its own: every two variables of a member differ,
//! so `must_differ(a, b)` is `a != b`.  The partitions are walked as
//! restricted growth strings through dense per-variable arrays that the
//! walk reuses, so once the buffers have grown, building a description
//! allocates nothing per member.  [`Description::materialise`] turns the
//! members into [`Ccq`]s, names included, for tests, examples and the
//! oracle's [`Ducq`]; [`complete_description_cq`] and
//! [`complete_description_ucq`] are that walk, materialised.
//!
//! # Isomorphism classes
//!
//! Every criterion that reads ⟨Q⟩ sees its members only up to isomorphism.
//! [`Classes`] groups the members of one description, or of two jointly,
//! into exact isomorphism classes with a multiplicity per description.  A
//! cheap signature buckets the members: the variable and atom counts, the
//! distinct atoms per relation, each variable's `(relation, position)`
//! occurrences, each atom's relation and its arguments' occurrences, and the
//! head.  The canonical code of [`crate::key`] then decides membership
//! exactly, and it is computed only for the members of buckets that hold
//! two or more, so no check is pairwise.

use crate::ccq::Ccq;
use crate::cq::{Atom, Cq, QVar, QueryView};
use crate::key::Search;
use crate::schema::{RelId, Schema};
use crate::ucq::{Ducq, Ucq};
use std::cell::Cell;
use std::ops::Range;
use std::slice;

/// Computes the complete description ⟨Q⟩ of a CQ, one CCQ per set partition
/// of its variables.
pub fn complete_description_cq(query: &Cq) -> Ducq {
    Description::new(slice::from_ref(query)).materialise()
}

/// Computes the complete description ⟨Q⟩ of a UCQ: the multiset union of the
/// complete descriptions of its members, in member order.
pub fn complete_description_ucq(query: &Ucq) -> Ducq {
    Description::new(query.disjuncts()).materialise()
}

/// The complete description ⟨Q⟩ of a union of CQs, flat: the multiset union
/// of its disjuncts' descriptions, in disjunct order, each in the order of
/// the partitions of its variables.
pub struct Description<'q> {
    disjuncts: &'q [Cq],
    /// Per disjunct: where its layout starts in `layout`.
    layouts: Vec<u32>,
    /// Per disjunct with `m` atoms: the offset of each atom's arguments in
    /// a member's arguments, then the head's offset and the end (`m + 2`
    /// entries); then, per atom, the number of the disjunct's atoms with
    /// that atom's relation, and the first atom with that relation (`m`
    /// entries each).
    layout: Vec<u32>,
    members: Vec<Entry>,
    /// Every member's atom arguments and head, member after member.
    args: Vec<QVar>,
    /// Per member and atom: the member's distinct atoms with that atom's
    /// relation.
    distinct: Vec<u32>,
    /// Per disjunct: where its slot hashes start in `slots`.
    slot_starts: Vec<u32>,
    /// Per disjunct and argument position, head positions included: a hash
    /// of the relation and position, which the grouping sums into each
    /// variable's degree.
    slots: Vec<u64>,
}

/// The most members per disjunct a [`Description`] reserves room for
/// before walking: B(7) = 877 fits, B(8) = 4,140 grows.
const RESERVED: u64 = 1 << 10;

/// Where one member lives in a [`Description`]'s buffers.
#[derive(Clone, Copy)]
struct Entry {
    disjunct: u32,
    vars: u32,
    args: usize,
    distinct: usize,
}

impl<'q> Description<'q> {
    /// Walks the set partitions of each disjunct's variables, free ones
    /// included, into one flat description.
    pub fn new(disjuncts: &'q [Cq]) -> Self {
        // The buffers get their final sizes up front: B(n) members per
        // disjunct with n distinct variables, free ones included, up to
        // `RESERVED` members; larger descriptions grow as they are walked.
        let (mut members, mut args, mut distinct, mut layout) = (0, 0, 0, 0);
        for query in disjuncts {
            let bell = bell_number(query.num_vars()).unwrap_or(RESERVED);
            let count = bell.min(RESERVED) as usize;
            let m = query.num_atoms();
            let arguments = query.atoms().iter().map(|a| a.args.len()).sum::<usize>();
            members += count;
            args += count * (arguments + query.free_vars().len());
            distinct += count * m;
            layout += 3 * m + 2;
        }
        let mut description = Description {
            disjuncts,
            layouts: Vec::with_capacity(disjuncts.len()),
            layout: Vec::with_capacity(layout),
            members: Vec::with_capacity(members),
            args: Vec::with_capacity(args),
            distinct: Vec::with_capacity(distinct),
            slot_starts: Vec::with_capacity(disjuncts.len()),
            slots: Vec::new(),
        };
        let mut walk = WALK.with(Cell::take);
        for (d, query) in disjuncts.iter().enumerate() {
            description.lay_out(query);
            walk.describe(d, query, &mut description);
        }
        WALK.with(|cell| cell.set(walk));
        description
    }

    /// Records the argument offsets and relation counts of `query`'s atoms.
    fn lay_out(&mut self, query: &Cq) {
        self.layouts.push(self.layout.len() as u32);
        let atoms = query.atoms();
        let mut offset = 0;
        for atom in atoms {
            self.layout.push(offset);
            offset += atom.args.len() as u32;
        }
        self.layout.push(offset);
        self.layout.push(offset + query.free_vars().len() as u32);
        let occurrences = |a: &Atom| atoms.iter().filter(|b| b.relation == a.relation).count();
        self.layout
            .extend(atoms.iter().map(|a| occurrences(a) as u32));
        let first = |a: &Atom| atoms.iter().position(|b| b.relation == a.relation);
        self.layout
            .extend(atoms.iter().map(|a| first(a).unwrap_or_default() as u32));
        self.slot_starts.push(self.slots.len() as u32);
        for atom in atoms {
            let relation = u64::from(atom.relation.0) << 8;
            (self.slots).extend((0..atom.args.len()).map(|p| mix(relation | p as u64)));
        }
        (self.slots).extend((0..query.free_vars().len()).map(|p| mix(HEAD | p as u64)));
    }

    /// The number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the description has no members (an empty union).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The `i`-th member.
    pub fn member(&self, i: usize) -> Member<'_> {
        let entry = self.members[i];
        let query = &self.disjuncts[entry.disjunct as usize];
        let m = query.num_atoms();
        let layout = &self.layout[self.layouts[entry.disjunct as usize] as usize..][..3 * m + 2];
        let (args, distinct) = (entry.args, entry.distinct);
        let (len, slots) = (
            layout[m + 1] as usize,
            self.slot_starts[entry.disjunct as usize] as usize,
        );
        Member {
            query,
            layout,
            args: &self.args[args..args + len],
            distinct: &self.distinct[distinct..distinct + m],
            slots: &self.slots[slots..slots + len],
            vars: entry.vars as usize,
        }
    }

    /// The members, in walk order.
    pub fn members(&self) -> impl Iterator<Item = Member<'_>> + '_ {
        (0..self.len()).map(|i| self.member(i))
    }

    /// The members as CCQs, in walk order: each keeps the names of its
    /// blocks' representatives, and every two of its variables get an
    /// inequality.
    pub fn materialise(&self) -> Ducq {
        Ducq::new(self.members().map(|member| member.to_ccq()))
    }
}

/// One member of a [`Description`]: a complete CCQ whose variables
/// `0..num_vars()` all differ, read in place.
#[derive(Clone, Copy)]
pub struct Member<'d> {
    query: &'d Cq,
    /// The disjunct's layout: `m + 2` offsets into `args`, then `m`
    /// relation counts and `m` first atoms of each relation.
    layout: &'d [u32],
    args: &'d [QVar],
    distinct: &'d [u32],
    /// The slot hash of each argument, aligned with `args`.
    slots: &'d [u64],
    vars: usize,
}

impl<'d> Member<'d> {
    /// The first atom with relation `rel`, if any.
    fn first(&self, rel: RelId) -> Option<usize> {
        (0..self.num_atoms()).find(|&a| self.relation(a) == rel)
    }

    /// How many atoms have relation `rel`.
    pub fn occurrences(&self, rel: RelId) -> usize {
        let m = self.query.num_atoms();
        self.first(rel)
            .map_or(0, |i| self.layout[m + 2 + i] as usize)
    }

    /// How many distinct atoms have relation `rel`.
    pub fn distinct_atoms(&self, rel: RelId) -> usize {
        self.first(rel).map_or(0, |i| self.distinct[i] as usize)
    }

    /// The member as a CCQ.  Each variable keeps the name of its block's
    /// representative, the least free variable of the block if there is
    /// one, else its least variable, and every two variables get an
    /// inequality.
    pub fn to_ccq(&self) -> Ccq {
        let query = self.query;
        let mut image = vec![0; query.num_vars()];
        for (i, atom) in query.atoms().iter().enumerate() {
            for (v, w) in atom.args.iter().zip(self.args(i)) {
                image[v.0 as usize] = w.0 as usize;
            }
        }
        let free = |v: usize| query.is_free(QVar(v as u32));
        let mut rep: Vec<Option<usize>> = vec![None; self.vars];
        for (v, &w) in image.iter().enumerate() {
            match rep[w] {
                Some(r) if free(r) || !free(v) => {}
                _ => rep[w] = Some(v),
            }
        }
        let name = |r: &Option<usize>| query.var_name(QVar(r.unwrap_or_default() as u32));
        let names = rep.iter().map(|r| name(r).to_string()).collect();
        let atoms = (0..self.num_atoms())
            .map(|i| Atom::new(self.relation(i), self.args(i).to_vec()))
            .collect();
        let cq = Cq::new(query.schema().clone(), self.head().to_vec(), atoms, names);
        let k = self.vars as u32;
        let pairs = (0..k).flat_map(|a| (a + 1..k).map(move |b| (QVar(a), QVar(b))));
        Ccq::new(cq, pairs)
    }
}

impl QueryView for Member<'_> {
    fn schema(&self) -> &Schema {
        self.query.schema()
    }

    fn num_vars(&self) -> usize {
        self.vars
    }

    fn num_atoms(&self) -> usize {
        self.distinct.len()
    }

    fn relation(&self, atom: usize) -> RelId {
        self.query.atoms()[atom].relation
    }

    fn args(&self, atom: usize) -> &[QVar] {
        &self.args[self.layout[atom] as usize..self.layout[atom + 1] as usize]
    }

    fn head(&self) -> &[QVar] {
        let m = self.distinct.len();
        &self.args[self.layout[m] as usize..]
    }
}

/// Marks an unset entry of the walk's arrays.
const UNSET: u32 = u32::MAX;

thread_local! {
    /// The walk's arrays, reused by every description built on this
    /// thread.
    static WALK: Cell<Walk> = Cell::new(Walk::default());
    /// The grouping's buffers, reused by every grouping on this thread.
    static BUFFERS: Cell<Buffers> = Cell::new(Buffers::default());
}

/// The walk over the set partitions of a query's variables, with the dense
/// arrays it reuses from one partition, and one query, to the next.
#[derive(Default)]
struct Walk {
    /// The variables in partition order: the existential ones, then the
    /// free ones, each ascending.  So a Boolean or one-free-variable
    /// query's members come in the order of the partitions of its
    /// existential variables.
    vars: Vec<u32>,
    /// The partition as a restricted growth string: `block[i]` numbers the
    /// block of `vars[i]`, blocks numbered in order of their first element.
    block: Vec<u32>,
    /// `most[i]`: the largest number in `block[..=i]`.
    most: Vec<u32>,
    /// Per block: the position in `vars` of its representative.
    rep: Vec<u32>,
    /// Per variable: its index in the member if it represents its block.
    index: Vec<u32>,
    /// Per variable: the member index of its block's representative.
    image: Vec<u32>,
    /// Per atom: the distinct atoms with its relation, counted at the
    /// relation's first atom.
    counts: Vec<u32>,
}

impl Walk {
    /// Appends ⟨query⟩ to `out`, one member per set partition of its
    /// variables.  The strings come in lexicographic order, which puts each
    /// element into every existing block before a new one.
    fn describe(&mut self, disjunct: usize, query: &Cq, out: &mut Description<'_>) {
        let n = query.num_vars();
        let free = |v: &u32| query.is_free(QVar(*v));
        self.vars.clear();
        self.vars.extend((0..n as u32).filter(|v| !free(v)));
        let existential = self.vars.len();
        self.vars.extend((0..n as u32).filter(free));
        self.block.clear();
        self.block.resize(n, 0);
        self.most.clear();
        self.most.resize(n, 0);
        self.image.resize(n, 0);
        loop {
            self.collapse(disjunct, query, existential, out);
            // The next string raises the last entry that may grow and
            // resets every entry after it.
            let Some(i) = (1..n).rev().find(|&i| self.block[i] <= self.most[i - 1]) else {
                break;
            };
            self.block[i] += 1;
            self.most[i] = self.most[i - 1].max(self.block[i]);
            for j in i + 1..n {
                self.block[j] = 0;
                self.most[j] = self.most[i];
            }
        }
    }

    /// Appends the member of the current partition.  The variables of each
    /// block are identified with its representative: the least free
    /// variable of the block if there is one, else its least variable.  The
    /// survivors keep their order.
    fn collapse(
        &mut self,
        disjunct: usize,
        query: &Cq,
        existential: usize,
        out: &mut Description<'_>,
    ) {
        let blocks = self.most.last().map_or(0, |&most| most as usize + 1);
        self.rep.clear();
        self.rep.resize(blocks, UNSET);
        for (i, &b) in self.block.iter().enumerate() {
            // `vars` lists the existential variables and then the free
            // ones, each ascending: the first variable seen represents its
            // block until a free one is seen.
            let rep = &mut self.rep[b as usize];
            if *rep == UNSET || (i >= existential && (*rep as usize) < existential) {
                *rep = i as u32;
            }
        }
        self.index.clear();
        self.index.resize(self.vars.len(), UNSET);
        for &rep in &self.rep {
            self.index[self.vars[rep as usize] as usize] = 0;
        }
        let mut survivors = 0;
        for index in &mut self.index {
            if *index != UNSET {
                *index = survivors;
                survivors += 1;
            }
        }
        for (&v, &b) in self.vars.iter().zip(&self.block) {
            let rep = self.vars[self.rep[b as usize] as usize];
            self.image[v as usize] = self.index[rep as usize];
        }
        let start = out.args.len();
        let image = |v: &QVar| QVar(self.image[v.0 as usize]);
        let atoms = query.atoms();
        out.args
            .extend(atoms.iter().flat_map(|a| a.args.iter().map(image)));
        out.args.extend(query.free_vars().iter().map(image));
        // Count each relation's distinct atoms at its first atom: an atom
        // counts unless an earlier one of its relation has its arguments.
        let m = atoms.len();
        let layout = &out.layout[out.layouts[disjunct] as usize..][..3 * m + 2];
        let (offsets, groups) = (&layout[..m + 1], &layout[2 * m + 2..]);
        let args = &out.args[start..];
        let atom = |i: usize| &args[offsets[i] as usize..offsets[i + 1] as usize];
        self.counts.clear();
        self.counts.resize(m, 0);
        for i in 0..m {
            let group = groups[i] as usize;
            if !(group..i).any(|j| groups[j] as usize == group && atom(j) == atom(i)) {
                self.counts[group] += 1;
            }
        }
        out.members.push(Entry {
            disjunct: disjunct as u32,
            vars: blocks as u32,
            args: start,
            distinct: out.distinct.len(),
        });
        let counts = &self.counts;
        (out.distinct).extend(groups.iter().map(|&group| counts[group as usize]));
    }
}

/// The members of one description, or of two jointly, grouped into exact
/// isomorphism classes.  Each class has a representative, its first member
/// in walk order (the first description's members before the second's),
/// and a multiplicity in each description.  Classes come in the order of
/// their representatives.
pub struct Classes<'d> {
    /// The descriptions grouped: one, or two.
    sides: [&'d Description<'d>; 2],
    classes: Vec<Class>,
}

/// One isomorphism class: the side and index of its representative, and
/// how many members of each side it holds.
struct Class {
    rep: (u32, u32),
    counts: [u64; 2],
}

impl<'d> Classes<'d> {
    /// The classes of one description.
    pub fn of(description: &'d Description<'d>) -> Self {
        Classes::group([description, description], 1)
    }

    /// The classes of ⟨Q₁⟩ ∪ ⟨Q₂⟩, with a multiplicity on each side.
    pub fn joint(first: &'d Description<'d>, second: &'d Description<'d>) -> Self {
        Classes::group([first, second], 2)
    }

    /// The number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether there are no classes (every description is empty).
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The representative of class `class`.
    pub fn representative(&self, class: usize) -> Member<'d> {
        let (side, index) = self.classes[class].rep;
        self.sides[side as usize].member(index as usize)
    }

    /// How many members of description `side` (`0` or, for joint classes,
    /// `1`) fall into class `class`.
    pub fn count(&self, class: usize, side: usize) -> u64 {
        self.classes[class].counts[side]
    }

    /// Buckets the members of the first `width` sides by signature, and
    /// splits each bucket that holds two or more by relabelled form and
    /// canonical code.
    fn group(sides: [&'d Description<'d>; 2], width: usize) -> Self {
        let mut b = BUFFERS.with(Cell::take);
        let total = sides[..width].iter().map(|d| d.len()).sum();
        let mut classes = Classes {
            sides,
            classes: Vec::with_capacity(total),
        };
        b.keyed.clear();
        for (side, description) in sides[..width].iter().enumerate() {
            for (i, member) in description.members().enumerate() {
                let signature = b.signature(&member);
                b.keyed.push((signature, side as u32, i as u32));
            }
        }
        b.keyed.sort_unstable();
        let keyed = std::mem::take(&mut b.keyed);
        let mut start = 0;
        while start < keyed.len() {
            let end = start + keyed[start..].partition_point(|k| k.0 == keyed[start].0);
            classes.split(&keyed[start..end], &mut b);
            start = end;
        }
        b.keyed = keyed;
        BUFFERS.with(|cell| cell.set(b));
        classes.classes.sort_unstable_by_key(|class| class.rep);
        classes
    }

    /// Adds the classes of one signature bucket, whose entries are
    /// `(signature, side, index)` in walk order.  Members with equal
    /// relabelled forms are isomorphic through the relabellings, so only
    /// one member per form is coded, and forms with equal codes join.
    fn split(&mut self, bucket: &[(u64, u32, u32)], b: &mut Buffers) {
        if let [(_, side, i)] = bucket {
            let mut counts = [0; 2];
            counts[*side as usize] = 1;
            self.classes.push(Class {
                rep: (*side, *i),
                counts,
            });
            return;
        }
        let member = |k: usize| {
            let (_, side, i) = bucket[k];
            self.sides[side as usize].member(i as usize)
        };
        b.forms.clear();
        b.spans.clear();
        for k in 0..bucket.len() {
            let from = b.forms.len();
            b.form(&member(k));
            b.spans.push(from..b.forms.len());
        }
        // Equal forms become adjacent; ties keep walk order, so each run
        // starts with its first member.
        let (forms, spans) = (&b.forms, &b.spans);
        let form = |k: usize| &forms[spans[k].clone()];
        b.order.clear();
        b.order.extend(0..bucket.len());
        b.order
            .sort_by(|&x, &y| form(x).cmp(form(y)).then(x.cmp(&y)));
        b.runs.clear();
        let mut run = 0;
        while run < b.order.len() {
            let first = form(b.order[run]);
            let next = run + b.order[run..].partition_point(|&k| form(k) == first);
            b.runs.push(run..next);
            run = next;
        }
        // One code per form, when there are several forms.
        b.codes.clear();
        b.code_spans.clear();
        if b.runs.len() > 1 {
            for r in 0..b.runs.len() {
                let from = b.codes.len();
                let k = b.order[b.runs[r].start];
                b.search.code(&member(k), &mut b.codes);
                b.code_spans.push(from..b.codes.len());
            }
        }
        let (codes, code_spans, order, runs) = (&b.codes, &b.code_spans, &b.order, &b.runs);
        let code = |r: usize| {
            code_spans
                .get(r)
                .map_or(&[][..], |span| &codes[span.clone()])
        };
        let head = |r: usize| order[runs[r].start];
        b.merged.clear();
        b.merged.extend(0..runs.len());
        b.merged
            .sort_by(|&x, &y| code(x).cmp(code(y)).then(head(x).cmp(&head(y))));
        let mut group = 0;
        while group < b.merged.len() {
            let first = code(b.merged[group]);
            let next = group + b.merged[group..].partition_point(|&r| code(r) == first);
            let (_, side, i) = bucket[head(b.merged[group])];
            let mut counts = [0; 2];
            for &r in &b.merged[group..next] {
                for &k in &order[runs[r].clone()] {
                    counts[bucket[k].1 as usize] += 1;
                }
            }
            self.classes.push(Class {
                rep: (side, i),
                counts,
            });
            group = next;
        }
    }
}

/// The buffers grouping reuses from member to member, bucket to bucket and
/// grouping to grouping.
#[derive(Default)]
struct Buffers {
    /// Per member: its signature, side and index.
    keyed: Vec<(u64, u32, u32)>,
    /// Per variable: its occurrences hashed (see [`Buffers::degrees`]).
    degree: Vec<u64>,
    /// Per variable: its first position in the member's arguments.
    first: Vec<u32>,
    /// Variables, then atoms, in relabelled order.
    sorted: Vec<u32>,
    /// Per variable: its relabelled name.
    label: Vec<u32>,
    /// Per atom: its relation and relabelled arguments.
    rows: Vec<u32>,
    /// The forms of a bucket's members, at `spans`.
    forms: Vec<u64>,
    spans: Vec<Range<usize>>,
    /// Bucket positions in order of form, and the runs of equal forms.
    order: Vec<usize>,
    runs: Vec<Range<usize>>,
    /// One code per run, at `code_spans`.
    codes: Vec<u64>,
    code_spans: Vec<Range<usize>>,
    /// Runs in order of code.
    merged: Vec<usize>,
    search: Search,
}

impl Buffers {
    /// Hashes each variable's `(relation, position)` occurrences into
    /// `degree`, head positions included, as a sum of slot hashes, which no
    /// renaming changes.
    fn degrees(&mut self, member: &Member<'_>) {
        self.degree.clear();
        self.degree.resize(member.num_vars(), 0);
        for (v, &slot) in member.args.iter().zip(member.slots) {
            let d = &mut self.degree[v.0 as usize];
            *d = d.wrapping_add(slot);
        }
    }

    /// A hash of an isomorphism invariant of `member`, for bucketing: the
    /// variable and atom counts, the variables' degrees, each atom's
    /// relation, its relation's distinct atom count and its arguments'
    /// degrees in position order, and the head's degrees.  Isomorphic
    /// members hash equally; others may collide, which only joins their
    /// buckets.
    fn signature(&mut self, member: &Member<'_>) -> u64 {
        self.degrees(member);
        let degree = &self.degree;
        let mut sum = (degree.iter()).fold(0u64, |sum, &d| sum.wrapping_add(mix(d)));
        for a in 0..member.num_atoms() {
            let relation = u64::from(member.relation(a).0) | (u64::from(member.distinct[a]) << 32);
            let args = member.args(a).iter();
            sum = sum.wrapping_add(args.fold(mix(relation), |h, v| mix(h ^ degree[v.0 as usize])));
        }
        let counts = ((member.num_vars() as u64) << 32) | member.num_atoms() as u64;
        let head = member.head().iter();
        head.fold(mix(sum ^ mix(counts)), |h, v| mix(h ^ degree[v.0 as usize]))
    }

    /// Appends `member` relabelled to `forms`: its variable, head and atom
    /// counts, then, with its variables renamed in order of degree, ties by
    /// first occurrence, the head and the sorted atoms under the new names
    /// (an atom's relation fixes its arity).  The relabelling is a bijection,
    /// so members with equal forms are isomorphic; isomorphic members may
    /// still differ in form where ties break differently.
    fn form(&mut self, member: &Member<'_>) {
        let n = member.num_vars();
        self.degrees(member);
        self.first.clear();
        self.first.resize(n, u32::MAX);
        let args = (0..member.num_atoms()).flat_map(|a| member.args(a));
        for (position, v) in args.chain(member.head()).enumerate() {
            let first = &mut self.first[v.0 as usize];
            *first = (*first).min(position as u32);
        }
        let (degree, first) = (&self.degree, &self.first);
        self.sorted.clear();
        self.sorted.extend(0..n as u32);
        self.sorted
            .sort_unstable_by_key(|&v| (degree[v as usize], first[v as usize]));
        self.label.clear();
        self.label.resize(n, 0);
        for (l, &v) in self.sorted.iter().enumerate() {
            self.label[v as usize] = l as u32;
        }
        // Each atom as its relation and relabelled arguments, at
        // `rows[offset(a) + a..offset(a + 1) + a + 1]`.
        let label = &self.label;
        self.rows.clear();
        for a in 0..member.num_atoms() {
            self.rows.push(member.relation(a).0);
            (self.rows).extend(member.args(a).iter().map(|v| label[v.0 as usize]));
        }
        let (rows, layout) = (&self.rows, member.layout);
        let row = |a: u32| {
            &rows[(layout[a as usize] + a) as usize..(layout[a as usize + 1] + a + 1) as usize]
        };
        self.sorted.clear();
        self.sorted.extend(0..member.num_atoms() as u32);
        self.sorted.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
        let head = member.head();
        (self.forms).extend([n, head.len(), member.num_atoms()].map(|count| count as u64));
        (self.forms).extend(head.iter().map(|v| u64::from(label[v.0 as usize])));
        for &a in &self.sorted {
            self.forms.extend(row(a).iter().map(|&w| u64::from(w)));
        }
    }
}

/// The pseudo-relation of head positions in the slot hashes.
const HEAD: u64 = 1 << 63;

/// The SplitMix64 finaliser: a bijective mix of the bits of `x`.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The Bell number `B(n)`: the number of members of the complete
/// description of a CQ with `n` distinct variables, or `None` once it
/// exceeds `u64::MAX` (from `n = 26` on).
pub fn bell_number(n: usize) -> Option<u64> {
    // Row k of the Bell triangle starts with B(k) and ends with B(k + 1),
    // so B(n) ends row n - 1 and the rows stop there.  Each row is built
    // in place over the one before; row k has k + 1 entries, and row 25
    // already overflows, so 26 entries hold every row.
    let mut row = [0u64; 26];
    row[0] = 1;
    for k in 1..n {
        let mut next = row[k - 1];
        for entry in &mut row[..k] {
            let above = *entry;
            *entry = next;
            next = next.checked_add(above)?;
        }
        *row.get_mut(k)? = next;
    }
    Some(row[n.saturating_sub(1)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GeneratorConfig, QueryGenerator, QueryShape};
    use crate::schema::Schema;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// The reference enumeration: every set partition of `{0, …, n-1}` as
    /// nested vectors, blocks and elements in a canonical order.  The
    /// number of partitions is the Bell number `B(n)`.
    fn set_partitions(n: usize) -> Vec<Vec<Vec<usize>>> {
        let mut result = Vec::new();
        let mut current: Vec<Vec<usize>> = Vec::new();
        partition_rec(0, n, &mut current, &mut result);
        result
    }

    fn partition_rec(
        element: usize,
        n: usize,
        current: &mut Vec<Vec<usize>>,
        result: &mut Vec<Vec<Vec<usize>>>,
    ) {
        if element == n {
            result.push(current.clone());
            return;
        }
        for i in 0..current.len() {
            current[i].push(element);
            partition_rec(element + 1, n, current, result);
            current[i].pop();
        }
        current.push(vec![element]);
        partition_rec(element + 1, n, current, result);
        current.pop();
    }

    /// The reference CCQ for one partition of `vars`: identify the
    /// variables in each block and add inequalities between all remaining
    /// distinct variables.
    fn collapse(query: &Cq, vars: &[QVar], partition: &[Vec<usize>]) -> Ccq {
        // representative of each variable = the smallest free variable of
        // its block if there is one, else the smallest variable of the block.
        let mut repr: BTreeMap<QVar, QVar> = BTreeMap::new();
        for block in partition {
            let members = || block.iter().map(|&i| vars[i]);
            let rep = members()
                .filter(|&v| query.is_free(v))
                .min()
                .or_else(|| members().min())
                .expect("non-empty block");
            for v in members() {
                repr.insert(v, rep);
            }
        }
        let rename = |v: QVar| -> QVar { *repr.get(&v).unwrap_or(&v) };

        // Re-index the surviving variables compactly, keeping the names.
        let survivors: Vec<QVar> = {
            let mut s: Vec<QVar> = query
                .all_vars()
                .into_iter()
                .filter(|v| rename(*v) == *v)
                .collect();
            s.sort();
            s
        };
        let new_index: BTreeMap<QVar, QVar> = survivors
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, QVar(i as u32)))
            .collect();
        let var_names: Vec<String> = survivors
            .iter()
            .map(|&v| query.var_name(v).to_string())
            .collect();
        let to_new = |v: QVar| -> QVar { new_index[&rename(v)] };

        let atoms: Vec<Atom> = query.atoms().iter().map(|a| a.map_vars(&to_new)).collect();
        let free: Vec<QVar> = query.free_vars().iter().map(|&v| to_new(v)).collect();
        let cq = Cq::new(query.schema().clone(), free, atoms, var_names);

        // inequalities between every pair of distinct surviving variables.
        let all = cq.all_vars();
        let mut inequalities = Vec::new();
        for (i, &a) in all.iter().enumerate() {
            for &b in &all[i + 1..] {
                inequalities.push((a, b));
            }
        }
        Ccq::new(cq, inequalities)
    }

    /// ⟨Q⟩ by the reference enumeration: the existential variables, then
    /// the distinct free ones, partitioned and collapsed partition by
    /// partition.
    fn reference_cq(query: &Cq) -> Vec<Ccq> {
        let mut vars = query.existential_vars();
        let mut free = query.free_vars().to_vec();
        free.sort();
        free.dedup();
        vars.extend(free);
        (set_partitions(vars.len()).iter())
            .map(|partition| collapse(query, &vars, partition))
            .collect()
    }

    fn schema() -> Schema {
        Schema::with_relations([("R", 2)])
    }

    #[test]
    fn set_partitions_counts_are_bell_numbers() {
        assert_eq!(set_partitions(0).len(), 1);
        assert_eq!(set_partitions(1).len(), 1);
        assert_eq!(set_partitions(2).len(), 2);
        assert_eq!(set_partitions(3).len(), 5);
        assert_eq!(set_partitions(4).len(), 15);
        assert_eq!(bell_number(0), Some(1));
        assert_eq!(bell_number(3), Some(5));
        assert_eq!(bell_number(5), Some(52));
        assert_eq!(bell_number(6), Some(203));
    }

    #[test]
    fn bell_numbers_stop_at_the_end_of_u64() {
        // B(0) … B(25); B(26) = 49,631,246,523,618,756,274 exceeds u64::MAX.
        let known: [u64; 26] = [
            1,
            1,
            2,
            5,
            15,
            52,
            203,
            877,
            4_140,
            21_147,
            115_975,
            678_570,
            4_213_597,
            27_644_437,
            190_899_322,
            1_382_958_545,
            10_480_142_147,
            82_864_869_804,
            682_076_806_159,
            5_832_742_205_057,
            51_724_158_235_372,
            474_869_816_156_751,
            4_506_715_738_447_323,
            44_152_005_855_084_346,
            445_958_869_294_805_289,
            4_638_590_332_229_999_353,
        ];
        for (n, &b) in known.iter().enumerate() {
            assert_eq!(bell_number(n), Some(b), "B({n})");
        }
        assert_eq!(bell_number(26), None);
        assert_eq!(bell_number(40), None);
    }

    /// A seeded CQ with `arity` head variables drawn from its own
    /// variables, repeats allowed.
    fn seeded(seed: u64, shape: QueryShape, num_atoms: usize, arity: usize) -> Cq {
        let mut generator = QueryGenerator::new(GeneratorConfig {
            num_atoms,
            shape,
            num_relations: 2,
            var_pool: 5,
            free_vars: 0,
            seed,
        });
        let q = generator.cq();
        let mut rng = StdRng::seed_from_u64(seed);
        let n = q.num_vars() as u32;
        let free = (0..arity).map(|_| QVar(rng.gen_range(0..n))).collect();
        Cq::new(
            q.schema().clone(),
            free,
            q.atoms().to_vec(),
            q.var_names().to_vec(),
        )
    }

    /// The flat members read, in order, the atoms, head and variable count
    /// of the reference members, and each has the reference's relation
    /// counts.
    fn assert_flat_members_equal(description: &Description<'_>, reference: &[Ccq]) {
        assert_eq!(description.len(), reference.len());
        for (member, ccq) in description.members().zip(reference) {
            let cq = ccq.cq();
            assert_eq!(member.num_vars(), cq.num_vars(), "{ccq}");
            assert_eq!(member.head(), cq.free_vars(), "{ccq}");
            assert_eq!(member.num_atoms(), cq.num_atoms(), "{ccq}");
            for (i, atom) in cq.atoms().iter().enumerate() {
                assert_eq!(member.relation(i), atom.relation, "{ccq}");
                assert_eq!(member.args(i), &atom.args[..], "{ccq}");
                let same = cq.atoms().iter().filter(|a| a.relation == atom.relation);
                assert_eq!(member.occurrences(atom.relation), same.clone().count());
                let mut distinct: Vec<&Atom> = same.collect();
                distinct.sort();
                distinct.dedup();
                assert_eq!(member.distinct_atoms(atom.relation), distinct.len());
            }
        }
    }

    #[test]
    fn walk_matches_the_reference_enumeration() {
        let shapes = [QueryShape::Chain, QueryShape::Star, QueryShape::Random];
        // CQs with 0–3 free variables and up to 7 variables.
        for num_atoms in 1..=6 {
            for seed in 0..if num_atoms < 6 { 4 } else { 1 } {
                for shape in shapes {
                    for arity in 0..=3 {
                        let q = seeded(seed, shape, num_atoms, arity);
                        let reference = reference_cq(&q);
                        let description = Description::new(slice::from_ref(&q));
                        assert_flat_members_equal(&description, &reference);
                        let walked = complete_description_cq(&q);
                        assert_eq!(walked.disjuncts(), reference, "{q}");
                    }
                }
            }
        }
        // UCQs of width 1–3, their members' descriptions in member order.
        for seed in 0..8 {
            for width in 1..=3 {
                let arity = seed as usize % 3;
                let members = (0..width as u64).map(|i| {
                    let shape = shapes[(seed + i) as usize % 3];
                    seeded(seed * 7 + i, shape, 1 + (seed + i) as usize % 4, arity)
                });
                let u = Ucq::new(members.collect::<Vec<_>>());
                let reference: Vec<Ccq> = u.disjuncts().iter().flat_map(reference_cq).collect();
                assert_flat_members_equal(&Description::new(u.disjuncts()), &reference);
                assert_eq!(complete_description_ucq(&u).disjuncts(), reference, "{u}");
            }
        }
    }

    #[test]
    fn example_4_6_complete_description() {
        // ⟨Q1⟩ for Q1 = ∃u,v,w R(u,v), R(u,w) has 5 CCQs (the paper lists
        // Q11 … Q15).
        let q1 = Cq::builder(&schema())
            .atom("R", &["u", "v"])
            .atom("R", &["u", "w"])
            .build();
        let desc = complete_description_cq(&q1);
        assert_eq!(desc.len(), 5);
        // Every member is complete and equivalent in atom count (2 atoms).
        for ccq in desc.disjuncts() {
            assert!(ccq.is_complete());
            assert_eq!(ccq.cq().num_atoms(), 2);
        }
        // Exactly one member has a single variable (u = v = w): Q15.
        let singletons = desc
            .disjuncts()
            .iter()
            .filter(|c| c.cq().num_vars() == 1)
            .count();
        assert_eq!(singletons, 1);
        // Exactly one member keeps all three variables distinct: Q11.
        let full = desc
            .disjuncts()
            .iter()
            .filter(|c| c.cq().num_vars() == 3)
            .count();
        assert_eq!(full, 1);
        // The three-variable member carries all three inequalities.
        let q11 = desc
            .disjuncts()
            .iter()
            .find(|c| c.cq().num_vars() == 3)
            .unwrap();
        assert_eq!(q11.inequalities().len(), 3);
    }

    #[test]
    fn free_variables_join_the_partition() {
        let q = Cq::builder(&schema())
            .free(&["x"])
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .build();
        let desc = complete_description_cq(&q);
        // two existential variables and one free one → B(3) = 5 CCQs
        assert_eq!(desc.len(), 5);
        for ccq in desc.disjuncts() {
            let cq = ccq.cq();
            assert_eq!(cq.free_vars().len(), 1);
            let x = cq.free_vars()[0];
            assert_eq!(cq.var_name(x), "x");
            assert!(ccq.is_complete());
            // every surviving existential variable differs from x
            assert!(cq.existential_vars().iter().all(|&v| ccq.must_differ(v, x)));
        }
        // Two free variables also merge with each other: B(3) = 5 CCQs, two
        // of them with the head (x, x) and three with x ≠ w.
        let q = Cq::builder(&schema())
            .free(&["x", "w"])
            .atom("R", &["x", "y"])
            .atom("R", &["y", "w"])
            .build();
        let desc = complete_description_cq(&q);
        assert_eq!(desc.len(), 5);
        let mut merged = 0;
        for ccq in desc.disjuncts() {
            let free = ccq.cq().free_vars();
            assert_eq!(free.len(), 2);
            assert_eq!(ccq.cq().var_name(free[0]), "x");
            if free[0] == free[1] {
                merged += 1;
            } else {
                assert_eq!(ccq.cq().var_name(free[1]), "w");
                assert!(ccq.must_differ(free[0], free[1]));
            }
            let n = ccq.cq().num_vars();
            assert_eq!(ccq.inequalities().len(), n * (n - 1) / 2);
        }
        assert_eq!(merged, 2);
    }

    #[test]
    fn existential_blocks_take_a_free_variables_value() {
        // ⟨Q(x) :- R(x, y), R(x, y)⟩ has the member R(x, x), R(x, x), which
        // ↪_∞ needs to see that Q(x) :- R(x, x), R(x, x) is contained in Q.
        let q = Cq::builder(&schema())
            .free(&["x"])
            .atom("R", &["x", "y"])
            .atom("R", &["x", "y"])
            .build();
        let desc = complete_description_cq(&q);
        assert_eq!(desc.len(), 2);
        let merged = (desc.disjuncts().iter())
            .find(|c| c.cq().num_vars() == 1)
            .expect("y merged into x");
        assert_eq!(merged.cq().atoms()[0].args, vec![QVar(0), QVar(0)]);
        assert!(merged.inequalities().is_empty());
    }

    #[test]
    fn description_preserves_every_output() {
        use crate::eval::{eval_cq_all_outputs, eval_ducq_all_outputs};
        use crate::instance::Instance;
        use annot_semiring::Natural;
        let preserved = |q: &Cq, db: &Instance<Natural>| {
            let desc = complete_description_cq(q);
            let expected = eval_cq_all_outputs(q, db);
            assert_eq!(expected, eval_ducq_all_outputs(&desc, db), "{q}");
            expected
        };
        let mut db: Instance<Natural> = Instance::new(schema());
        db.insert_named("R", vec![0.into(), 1.into()], Natural(2));
        db.insert_named("R", vec![1.into(), 1.into()], Natural(3));
        db.insert_named("R", vec![1.into(), 0.into()], Natural(5));
        db.insert_named("R", vec![0.into(), 0.into()], Natural(7));
        let one = Cq::builder(&schema())
            .free(&["x"])
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .build();
        preserved(&one, &db);
        // Two free variables, with outputs (a, a) among the results.
        for atoms in [[["x", "y"], ["y", "w"]], [["x", "x"], ["x", "w"]]] {
            let q = Cq::builder(&schema())
                .free(&["x", "w"])
                .atom("R", &atoms[0])
                .atom("R", &atoms[1])
                .build();
            assert!(preserved(&q, &db).keys().any(|t| t[0] == t[1]));
        }
        // Seeded queries with 0–2 free variables on random instances.
        for seed in 0..12 {
            for shape in [QueryShape::Chain, QueryShape::Star, QueryShape::Random] {
                for free_vars in 0..=2 {
                    let mut generator = QueryGenerator::new(GeneratorConfig {
                        num_atoms: 3,
                        shape,
                        num_relations: 1,
                        var_pool: 4,
                        free_vars,
                        seed,
                    });
                    let q = generator.cq();
                    preserved(&q, &generator.instance(2, 4));
                }
            }
        }
    }

    #[test]
    fn ucq_description_is_union_of_member_descriptions() {
        let q1 = Cq::builder(&schema()).atom("R", &["u", "v"]).build();
        let q2 = Cq::builder(&schema()).atom("R", &["u", "u"]).build();
        let ucq = Ucq::new([q1, q2]);
        let desc = complete_description_ucq(&ucq);
        // B(2) + B(1) = 2 + 1 = 3
        assert_eq!(desc.len(), 3);
    }

    #[test]
    fn variable_names_survive_collapsing() {
        let q1 = Cq::builder(&schema()).atom("R", &["u", "v"]).build();
        let desc = complete_description_cq(&q1);
        let collapsed = desc
            .disjuncts()
            .iter()
            .find(|c| c.cq().num_vars() == 1)
            .unwrap();
        // the surviving variable keeps one of the original names
        assert_eq!(collapsed.cq().var_name(QVar(0)), "u");
        assert_eq!(collapsed.cq().atoms()[0].args, vec![QVar(0), QVar(0)]);
    }

    /// Classes by the reference: the members of each description grouped
    /// by the canonical code of their materialised CQs, as sorted
    /// multiplicity pairs.
    fn classes_by_code(descriptions: &[&Description<'_>]) -> Vec<Vec<u64>> {
        let mut codes: Vec<(Vec<u64>, usize)> = Vec::new();
        for (side, description) in descriptions.iter().enumerate() {
            for ccq in description.materialise().disjuncts() {
                codes.push((crate::key::cq_code(ccq.cq()), side));
            }
        }
        codes.sort();
        let mut classes: Vec<Vec<u64>> = Vec::new();
        for (i, (code, side)) in codes.iter().enumerate() {
            if i == 0 || codes[i - 1].0 != *code {
                classes.push(vec![0; descriptions.len()]);
            }
            // invariant: a class was pushed for the first code
            classes.last_mut().expect("a class")[*side] += 1;
        }
        classes.sort();
        classes
    }

    /// The multiplicity pairs of `classes`, sorted.
    fn multiplicities(classes: &Classes<'_>, sides: usize) -> Vec<Vec<u64>> {
        let mut counts: Vec<Vec<u64>> = (0..classes.len())
            .map(|c| (0..sides).map(|side| classes.count(c, side)).collect())
            .collect();
        counts.sort();
        counts
    }

    #[test]
    fn classes_equal_grouping_by_canonical_code() {
        let shapes = [QueryShape::Chain, QueryShape::Star, QueryShape::Random];
        for seed in 0..40u64 {
            let arity = seed as usize % 3;
            let ucq = |shift: u64| {
                let members = (0..1 + (seed + shift) % 3).map(|i| {
                    let shape = shapes[((seed + i) % 3) as usize];
                    seeded(
                        seed * 5 + shift + i,
                        shape,
                        1 + ((seed + i) % 4) as usize,
                        arity,
                    )
                });
                Ucq::new(members.collect::<Vec<_>>())
            };
            let (u1, u2) = (ucq(0), ucq(1));
            let (d1, d2) = (
                Description::new(u1.disjuncts()),
                Description::new(u2.disjuncts()),
            );
            let joint = Classes::joint(&d1, &d2);
            assert_eq!(
                multiplicities(&joint, 2),
                classes_by_code(&[&d1, &d2]),
                "{u1} / {u2}"
            );
            let single = Classes::of(&d1);
            assert_eq!(multiplicities(&single, 1), classes_by_code(&[&d1]), "{u1}");
            // Representatives come in walk order, the first description's
            // members first, and each is the first member of its class.
            assert!(joint.classes.windows(2).all(|w| w[0].rep < w[1].rep));
            let code = |(side, i): (u32, u32)| {
                let description = [&d1, &d2][side as usize];
                crate::key::cq_code(description.member(i as usize).to_ccq().cq())
            };
            let walk = (0..d1.len()).map(|i| (0, i as u32));
            let walk: Vec<(u32, u32)> = walk.chain((0..d2.len()).map(|i| (1, i as u32))).collect();
            for rep in joint.classes.iter().map(|class| class.rep) {
                let earlier = walk.iter().take_while(|&&w| w < rep);
                assert!(
                    earlier.clone().all(|&w| code(w) != code(rep)),
                    "{u1} / {u2}"
                );
            }
        }
    }

    #[test]
    fn class_multiplicities_sum_to_bell_numbers() {
        for num_atoms in 1..=6 {
            for seed in 0..4 {
                for shape in [QueryShape::Chain, QueryShape::Star, QueryShape::Random] {
                    let q = seeded(seed, shape, num_atoms, seed as usize % 3);
                    let mut distinct = q.free_vars().to_vec();
                    distinct.sort();
                    distinct.dedup();
                    // Merged head positions name one variable.
                    let n = q.existential_vars().len() + distinct.len();
                    let description = Description::new(slice::from_ref(&q));
                    let classes = Classes::of(&description);
                    let total: u64 = (0..classes.len()).map(|c| classes.count(c, 0)).sum();
                    assert_eq!(Some(total), bell_number(n), "{q}");
                    assert!(classes.len() <= description.len());
                }
            }
        }
    }

    /// `Q() :- R(x, a1), …, R(x, ak)`.
    pub(crate) fn star(k: usize) -> Cq {
        let leaves: Vec<String> = (1..=k).map(|i| format!("a{i}")).collect();
        (leaves.iter())
            .fold(Cq::builder(&schema()), |b, leaf| b.atom("R", &["x", leaf]))
            .build()
    }

    /// `Q() :- R(x0, x1), …, R(x(k-1), xk)`.
    pub(crate) fn chain(k: usize) -> Cq {
        let vars: Vec<String> = (0..=k).map(|i| format!("x{i}")).collect();
        (vars.windows(2))
            .fold(Cq::builder(&schema()), |b, w| b.atom("R", &[&w[0], &w[1]]))
            .build()
    }

    #[test]
    fn class_counts_of_stars_and_chains() {
        let counted = |q: &Cq| {
            let description = Description::new(slice::from_ref(q));
            (description.len(), Classes::of(&description).len())
        };
        assert_eq!(counted(&star(5)), (203, 19));
        assert_eq!(counted(&star(6)), (877, 30));
        assert_eq!(counted(&star(7)), (4_140, 45));
        assert_eq!(counted(&chain(5)), (203, 122));
        assert_eq!(counted(&chain(6)), (877, 425));
        assert_eq!(counted(&chain(7)), (4_140, 1_528));
    }
}
