//! Variable interning and box domains.

use cso_numeric::Interval;
use std::collections::HashMap;
use std::fmt;

/// An interned variable identifier (index into a [`VarRegistry`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// The index of this variable within its registry.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Build a `VarId` from a raw index. The caller is responsible for the
    /// index being valid for the registry/domain it is used with.
    ///
    /// # Panics
    /// Panics if `index` does not fit in `u32`.
    #[must_use]
    pub fn from_index(index: usize) -> VarId {
        VarId(u32::try_from(index).expect("variable index overflow"))
    }
}

/// Interns variable names to dense [`VarId`]s.
///
/// All formulas handed to the solver must use ids from a single registry;
/// the solver's environments are dense vectors indexed by `VarId::index`.
#[derive(Debug, Clone, Default)]
pub struct VarRegistry {
    names: Vec<String>,
    by_name: HashMap<String, VarId>,
}

impl VarRegistry {
    /// Empty registry.
    #[must_use]
    pub fn new() -> VarRegistry {
        VarRegistry::default()
    }

    /// Intern `name`, returning its id (existing id if already interned).
    pub fn intern(&mut self, name: &str) -> VarId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = VarId(u32::try_from(self.names.len()).expect("too many variables"));
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Look up an already-interned name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<VarId> {
        self.by_name.get(name).copied()
    }

    /// The name of `id`.
    ///
    /// # Panics
    /// Panics if `id` is not from this registry.
    #[must_use]
    pub fn name(&self, id: VarId) -> &str {
        &self.names[id.index()]
    }

    /// Number of interned variables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` iff no variables are interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate over `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &str)> {
        self.names.iter().enumerate().map(|(i, n)| (VarId(i as u32), n.as_str()))
    }
}

/// A box domain: one interval per variable of a registry.
///
/// This is the paper's `ClosedInRange`: every query variable is confined to
/// a closed range (e.g. throughput ∈ [0, 10] Gbps, latency ∈ [0, 200] ms).
#[derive(Debug, Clone)]
pub struct BoxDomain {
    intervals: Vec<Interval>,
}

impl BoxDomain {
    /// A domain covering `vars.len()` variables, each initially `[-inf, inf]`.
    #[must_use]
    pub fn new(vars: &VarRegistry) -> BoxDomain {
        BoxDomain { intervals: vec![Interval::whole(); vars.len()] }
    }

    /// A domain of `n` variables, each initially `[-inf, inf]`.
    #[must_use]
    pub fn with_len(n: usize) -> BoxDomain {
        BoxDomain { intervals: vec![Interval::whole(); n] }
    }

    /// Set the range of one variable.
    pub fn set(&mut self, id: VarId, iv: Interval) {
        self.intervals[id.index()] = iv;
    }

    /// The range of one variable.
    #[must_use]
    pub fn get(&self, id: VarId) -> Interval {
        self.intervals[id.index()]
    }

    /// All intervals, indexed by variable index.
    #[must_use]
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Number of variables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// `true` iff the domain has no variables.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Index of the widest dimension (ties broken by lowest index).
    #[must_use]
    pub fn widest_dim(&self) -> usize {
        let mut best = 0;
        let mut w = f64::NEG_INFINITY;
        for (i, iv) in self.intervals.iter().enumerate() {
            if iv.width() > w {
                w = iv.width();
                best = i;
            }
        }
        best
    }

    /// Maximum width across dimensions.
    #[must_use]
    pub fn max_width(&self) -> f64 {
        self.intervals.iter().map(Interval::width).fold(0.0, f64::max)
    }

    /// Split into two boxes along dimension `dim` at its midpoint.
    #[must_use]
    pub fn bisect(&self, dim: usize) -> (BoxDomain, BoxDomain) {
        self.split(dim, self.intervals[dim].midpoint())
    }

    /// Split into two boxes along dimension `dim` at `at`: the low box
    /// keeps `[lo, at]` of that range, the high one `[at, hi]`, so the two
    /// share the face at `at` and cover this box exactly.
    ///
    /// # Panics
    /// Panics unless `at` lies in the range of `dim`.
    #[must_use]
    pub fn split(&self, dim: usize, at: f64) -> (BoxDomain, BoxDomain) {
        let iv = self.intervals[dim];
        let mut a = self.clone();
        let mut b = self.clone();
        a.intervals[dim] = Interval::new(iv.lo(), at);
        b.intervals[dim] = Interval::new(at, iv.hi());
        (a, b)
    }
}

impl fmt::Display for BoxDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Box{{")?;
        for (i, iv) in self.intervals.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "x{i}: {iv}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut r = VarRegistry::new();
        let a = r.intern("x");
        let b = r.intern("x");
        let c = r.intern("y");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(r.len(), 2);
        assert_eq!(r.name(a), "x");
        assert_eq!(r.get("y"), Some(c));
        assert_eq!(r.get("z"), None);
    }

    #[test]
    fn iter_in_order() {
        let mut r = VarRegistry::new();
        r.intern("a");
        r.intern("b");
        let names: Vec<_> = r.iter().map(|(_, n)| n.to_owned()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn box_domain_set_get() {
        let mut r = VarRegistry::new();
        let x = r.intern("x");
        let y = r.intern("y");
        let mut d = BoxDomain::new(&r);
        d.set(x, Interval::new(0.0, 1.0));
        d.set(y, Interval::new(-5.0, 5.0));
        assert_eq!(d.get(x), Interval::new(0.0, 1.0));
        assert_eq!(d.widest_dim(), y.index());
        assert_eq!(d.max_width(), 10.0);
    }

    #[test]
    fn box_bisect() {
        let mut d = BoxDomain::with_len(2);
        d.set(VarId(0), Interval::new(0.0, 4.0));
        d.set(VarId(1), Interval::new(0.0, 1.0));
        let (a, b) = d.bisect(0);
        assert_eq!(a.get(VarId(0)), Interval::new(0.0, 2.0));
        assert_eq!(b.get(VarId(0)), Interval::new(2.0, 4.0));
        assert_eq!(a.get(VarId(1)), Interval::new(0.0, 1.0));
    }
}
