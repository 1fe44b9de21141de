//! Polynomials of `N[X]` as flat exponent rows.
//!
//! A [`Terms`] holds a polynomial over the variables `x₀ … x_{w−1}` as one
//! `u32` exponent row of width `w` per monomial, stored back to back, with
//! one positive coefficient per row.  Rows are distinct and in increasing
//! lexicographic order, so a polynomial has exactly one representation at
//! a given width.  A row reads as zero past its width: `Terms` of different
//! widths compare as the polynomials they denote.
//!
//! This is the input of every polynomial order: the tropical orders of
//! [`crate::tropical`] and the orders of `annot-core`'s small-model
//! procedure read rows as slices, so comparing two polynomials allocates
//! nothing per monomial.  A [`Polynomial`] converts into it.

use crate::monomial::Monomial;
use crate::poly::Polynomial;
use std::cmp::Ordering;

/// A polynomial of `N[X]` as contiguous exponent rows and coefficients.
#[derive(Clone, Debug, Default)]
pub struct Terms {
    /// The number of variables: the length of every row.
    width: usize,
    /// The rows, `width` exponents each, distinct and in increasing
    /// lexicographic order.
    exponents: Vec<u32>,
    /// One positive coefficient per row.
    coefficients: Vec<u64>,
}

impl Terms {
    /// The zero polynomial over `width` variables.
    pub fn new(width: usize) -> Self {
        Terms {
            width,
            ..Terms::default()
        }
    }

    /// Makes this the zero polynomial over `width` variables, keeping the
    /// buffers.
    pub fn clear(&mut self, width: usize) {
        self.width = width;
        self.exponents.clear();
        self.coefficients.clear();
    }

    /// Adds `coefficient · x^row`, where `row` is not below the last row:
    /// an equal row adds to its coefficient.  A zero coefficient adds
    /// nothing.
    ///
    /// Panics if `row` has another width or comes below the last row.
    pub fn push(&mut self, row: &[u32], coefficient: u64) {
        assert_eq!(row.len(), self.width, "exponent row of the wrong width");
        if coefficient == 0 {
            return;
        }
        let last = (!self.is_zero()).then(|| &self.exponents[self.exponents.len() - self.width..]);
        match last.map(|last| last.cmp(row)) {
            Some(Ordering::Equal) => {
                // invariant: an existing row has a coefficient
                let last = self.coefficients.last_mut().expect("a row");
                *last = last.saturating_add(coefficient);
            }
            Some(Ordering::Greater) => panic!("exponent rows pushed out of order"),
            _ => {
                self.exponents.extend_from_slice(row);
                self.coefficients.push(coefficient);
            }
        }
    }

    /// The number of variables each row covers.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The number of monomials.
    pub fn num_terms(&self) -> usize {
        self.coefficients.len()
    }

    /// Whether this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coefficients.is_empty()
    }

    /// The exponent rows, in increasing order.
    pub fn rows(&self) -> impl DoubleEndedIterator<Item = &[u32]> + '_ {
        (0..self.num_terms()).map(move |i| &self.exponents[i * self.width..(i + 1) * self.width])
    }

    /// The `(row, coefficient)` pairs, in increasing row order.
    pub fn terms(&self) -> impl Iterator<Item = (&[u32], u64)> + '_ {
        self.rows().zip(self.coefficients.iter().copied())
    }

    /// The coefficient of the monomial `x^row` (0 if absent).  `row` may
    /// have any width.
    pub fn coefficient(&self, row: &[u32]) -> u64 {
        let (mut low, mut high) = (0, self.num_terms());
        while low < high {
            let mid = (low + high) / 2;
            let here = &self.exponents[mid * self.width..(mid + 1) * self.width];
            match cmp_rows(here, row) {
                Ordering::Less => low = mid + 1,
                Ordering::Greater => high = mid,
                Ordering::Equal => return self.coefficients[mid],
            }
        }
        0
    }

    /// The variables occurring in `self` or `other`, as increasing column
    /// indices.
    pub fn occurring(&self, other: &Terms) -> Vec<usize> {
        let width = self.width.max(other.width);
        let occurs = |p: &Terms, column: usize| p.rows().any(|row| exponent(row, column) > 0);
        (0..width)
            .filter(|&column| occurs(self, column) || occurs(other, column))
            .collect()
    }
}

/// The exponent of the variable in `column` of `row`, zero past its width.
pub(crate) fn exponent(row: &[u32], column: usize) -> u32 {
    row.get(column).copied().unwrap_or(0)
}

/// Whether the monomial `x^a` divides `x^b`.
pub(crate) fn divides(a: &[u32], b: &[u32]) -> bool {
    (a.iter().enumerate()).all(|(column, &e)| e <= exponent(b, column))
}

/// Every variable of `x^a` occurs in `x^b`.
pub(crate) fn support_within(a: &[u32], b: &[u32]) -> bool {
    (a.iter().enumerate()).all(|(column, &e)| e == 0 || exponent(b, column) > 0)
}

/// The lexicographic order of two rows read as zero past their widths.
fn cmp_rows(a: &[u32], b: &[u32]) -> Ordering {
    let width = a.len().max(b.len());
    ((0..width).map(|column| exponent(a, column))).cmp((0..width).map(|column| exponent(b, column)))
}

impl PartialEq for Terms {
    /// Equality of the polynomials, whatever the widths.
    fn eq(&self, other: &Terms) -> bool {
        self.coefficients == other.coefficients
            && (self.rows().zip(other.rows())).all(|(a, b)| cmp_rows(a, b).is_eq())
    }
}

impl Eq for Terms {}

impl From<&Polynomial> for Terms {
    /// The rows of `p` over `x₀ … x_m`, `x_m` its greatest variable.
    fn from(p: &Polynomial) -> Terms {
        let last = |(m, _): (&Monomial, u64)| m.factors().last().map(|&(v, _)| v.0 as usize);
        let width = p.terms().filter_map(last).max().map_or(0, |v| v + 1);
        let mut monomials: Vec<(&Monomial, u64)> = p.terms().collect();
        monomials.sort_unstable_by(|(a, _), (b, _)| cmp_dense(a, b));
        let mut terms = Terms {
            width,
            exponents: Vec::with_capacity(width * monomials.len()),
            coefficients: Vec::with_capacity(monomials.len()),
        };
        // Distinct monomials in increasing order: the rows keep the
        // invariant.
        for (m, c) in monomials {
            let start = terms.exponents.len();
            terms.exponents.resize(start + width, 0);
            for &(v, e) in m.factors() {
                terms.exponents[start + v.0 as usize] = e;
            }
            terms.coefficients.push(c);
        }
        terms
    }
}

/// The lexicographic order of two monomials' exponent rows, read off their
/// sorted factors: the least variable whose exponents differ decides.
fn cmp_dense(a: &Monomial, b: &Monomial) -> Ordering {
    let (a, b) = (a.factors(), b.factors());
    for (&(v, e), &(w, f)) in a.iter().zip(b) {
        if v != w {
            // The lesser variable occurs on one side only, which is greater.
            return w.cmp(&v);
        }
        if e != f {
            return e.cmp(&f);
        }
    }
    a.len().cmp(&b.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::Var;

    fn x() -> Polynomial {
        Polynomial::var(Var(0))
    }
    fn y() -> Polynomial {
        Polynomial::var(Var(1))
    }

    #[test]
    fn converts_from_polynomials() {
        let p = x().plus(&y()).pow(2).plus(&Polynomial::constant(3));
        let terms = Terms::from(&p);
        assert_eq!(terms.width(), 2);
        assert_eq!(terms.num_terms(), 4);
        // Lexicographic rows: 1, y², xy, x².
        let rows: Vec<&[u32]> = terms.rows().collect();
        assert_eq!(rows, [&[0, 0][..], &[0, 2], &[1, 1], &[2, 0]]);
        assert_eq!(terms.coefficient(&[1, 1]), 2);
        assert_eq!(terms.coefficient(&[1, 1, 0]), 2);
        assert_eq!(terms.coefficient(&[1]), 0);
        assert!(Terms::from(&Polynomial::zero()).is_zero());
        assert_eq!(Terms::from(&Polynomial::one()).width(), 0);
    }

    #[test]
    fn push_merges_equal_rows_and_skips_zero() {
        let mut terms = Terms::new(2);
        terms.push(&[0, 1], 1);
        terms.push(&[0, 1], 2);
        terms.push(&[1, 0], 0);
        terms.push(&[1, 0], 1);
        assert_eq!(
            terms.terms().collect::<Vec<_>>(),
            [(&[0, 1][..], 3), (&[1, 0], 1)]
        );
        terms.clear(1);
        assert!(terms.is_zero());
        assert_eq!(terms.width(), 1);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn push_rejects_a_lower_row() {
        let mut terms = Terms::new(1);
        terms.push(&[2], 1);
        terms.push(&[1], 1);
    }

    #[test]
    fn conversion_sorts_rows_lexicographically() {
        // x₀ < x₁ in N[X]'s graded order, but x₁ = (0, 1) < x₀ = (1, 0) as
        // rows; x₀x₂ = (1, 0, 1) comes after x₀ and before x₀².
        let z = Polynomial::var(Var(2));
        let p = x().plus(&y()).plus(&x().times(&z)).plus(&x().pow(2));
        let terms = Terms::from(&p);
        let rows: Vec<&[u32]> = terms.rows().collect();
        assert_eq!(rows, [&[0, 1, 0][..], &[1, 0, 0], &[1, 0, 1], &[2, 0, 0]]);
    }

    #[test]
    fn widths_do_not_change_the_polynomial() {
        let mut wide = Terms::new(3);
        wide.push(&[0, 1, 0], 1);
        wide.push(&[1, 0, 0], 2);
        let narrow = Terms::from(&y().plus(&x()).plus(&x()));
        assert_eq!(narrow.width(), 2);
        assert_eq!(wide, narrow);
        assert_ne!(wide, Terms::from(&y().plus(&x())));
        assert_eq!(wide.occurring(&Terms::new(5)), [0, 1]);
        assert!(divides(&[1, 0], &[1, 1, 0]));
        assert!(!divides(&[0, 0, 1], &[1, 1]));
        assert!(support_within(&[2, 0, 0], &[1]));
        assert!(!support_within(&[1, 1], &[1]));
    }
}
