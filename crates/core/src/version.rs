//! The four program versions the paper builds each application in (§III).

use votm_rac::QuotaMode;

/// How an application partitions its two shared objects into views, and
/// whether those views admit through RAC. Eigenbench and Intruder are built
/// in all four; the tables compare them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// Both objects in one RAC-controlled view.
    SingleView,
    /// One RAC-controlled view per object (the VOTM proposal).
    MultiView,
    /// One view per object, RAC disabled (isolates the metadata-splitting
    /// effect).
    MultiTm,
    /// Plain TM: one instance, no RAC.
    PlainTm,
}

impl Version {
    /// All versions, in table order.
    pub const ALL: [Version; 4] = [
        Version::SingleView,
        Version::MultiView,
        Version::MultiTm,
        Version::PlainTm,
    ];

    /// Paper row label.
    pub fn name(self) -> &'static str {
        match self {
            Version::SingleView => "single-view",
            Version::MultiView => "multi-view",
            Version::MultiTm => "multi-TM",
            Version::PlainTm => "TM",
        }
    }

    /// Whether the views admit through a RAC gate.
    pub fn has_rac(self) -> bool {
        matches!(self, Version::SingleView | Version::MultiView)
    }

    /// Whether each object gets a view of its own.
    pub fn splits_objects(self) -> bool {
        matches!(self, Version::MultiView | Version::MultiTm)
    }

    /// The quota each object's view runs at: `requested` under RAC,
    /// [`QuotaMode::Unrestricted`] without. A version with one view uses
    /// entry 0.
    pub fn quotas(self, requested: [QuotaMode; 2]) -> [QuotaMode; 2] {
        if self.has_rac() {
            requested
        } else {
            [QuotaMode::Unrestricted; 2]
        }
    }
}
