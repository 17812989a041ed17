//! Strongly typed identifiers for physical and virtual machines.
//!
//! Both are dense indices into the [`crate::datacenter::DataCenter`]'s
//! backing vectors, kept at 32 bits so hot per-round structures stay small.

use std::fmt;

/// Identifier of a physical machine (index into the data center's PM table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PmId(pub u32);

/// Identifier of a virtual machine (index into the data center's VM table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmId(pub u32);

impl PmId {
    /// The backing index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl VmId {
    /// The backing index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PM{}", self.0)
    }
}

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VM{}", self.0)
    }
}

impl From<u32> for PmId {
    fn from(v: u32) -> Self {
        PmId(v)
    }
}

impl From<u32> for VmId {
    fn from(v: u32) -> Self {
        VmId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip_and_display() {
        assert_eq!(PmId(7).index(), 7);
        assert_eq!(VmId(9).index(), 9);
        assert_eq!(PmId::from(3), PmId(3));
        assert_eq!(VmId::from(4), VmId(4));
        assert_eq!(format!("{}", PmId(1)), "PM1");
        assert_eq!(format!("{}", VmId(2)), "VM2");
    }

    #[test]
    fn ids_order_by_index() {
        assert!(PmId(1) < PmId(2));
        assert!(VmId(10) > VmId(9));
    }
}
