//! Variables of provenance polynomials.
//!
//! The paper works with the semiring `N[X]` of polynomials over a set of
//! variables `X` with natural-number coefficients (Sec. 3.2).  Variables are
//! represented by a compact integer identifier, which keeps polynomials
//! cheap to manipulate; they print as `x0`, `x1`, …

use std::fmt;

/// A polynomial variable, identified by a dense non-negative index.
///
/// Two variables are equal iff their indices are equal.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// Creates a variable with the given index.
    pub fn new(index: u32) -> Self {
        Var(index)
    }

    /// The raw index of the variable.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl From<u32> for Var {
    fn from(index: u32) -> Self {
        Var(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_equality_is_by_index() {
        assert_eq!(Var::new(3), Var(3));
        assert_ne!(Var::new(3), Var::new(4));
        assert_eq!(Var::new(7).index(), 7);
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", Var(5)), "x5");
        assert_eq!(format!("{:?}", Var(5)), "x5");
    }
}
