//! Error type for the FACIL core library.

use std::fmt;

/// Errors returned by the FACIL mapping, paging and allocation layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FacilError {
    /// A mapping scheme could not be constructed for the given topology
    /// (e.g. the interleaving bits do not fit inside the page offset).
    InvalidMapping(String),
    /// A MapID outside the supported range was requested.
    MapIdOutOfRange {
        /// The requested MapID.
        requested: u8,
        /// The maximum supported by the topology/page size.
        max: u8,
    },
    /// The memory-controller frontend has no free mapping slot.
    FrontendFull {
        /// Number of hardware mapping slots.
        slots: usize,
    },
    /// Physical memory could not satisfy an allocation.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes still free (possibly fragmented).
        free: u64,
    },
    /// A virtual address was not mapped.
    NotMapped {
        /// The faulting virtual address.
        va: u64,
    },
    /// An allocation request was malformed (zero-sized matrix, unsupported
    /// dtype-row combination, …).
    InvalidRequest(String),
    /// A serving-fleet device is crashed, out of range, or otherwise unable
    /// to accept work.
    DeviceUnavailable {
        /// Fleet index of the device.
        device: usize,
    },
}

impl fmt::Display for FacilError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FacilError::InvalidMapping(msg) => write!(f, "invalid mapping: {msg}"),
            FacilError::MapIdOutOfRange { requested, max } => {
                write!(f, "MapID {requested} out of range (max {max})")
            }
            FacilError::FrontendFull { slots } => {
                write!(f, "memory-controller frontend has no free mapping slot ({slots} total)")
            }
            FacilError::OutOfMemory { requested, free } => {
                write!(f, "out of physical memory: requested {requested} bytes, {free} free")
            }
            FacilError::NotMapped { va } => write!(f, "virtual address {va:#x} is not mapped"),
            FacilError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            FacilError::DeviceUnavailable { device } => {
                write!(f, "device {device} is unavailable")
            }
        }
    }
}

impl std::error::Error for FacilError {}

impl From<facil_dram::MapFault> for FacilError {
    fn from(e: facil_dram::MapFault) -> Self {
        FacilError::NotMapped { va: e.addr }
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, FacilError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_nonempty() {
        let errors: Vec<FacilError> = vec![
            FacilError::InvalidMapping("x".into()),
            FacilError::MapIdOutOfRange { requested: 9, max: 3 },
            FacilError::FrontendFull { slots: 4 },
            FacilError::OutOfMemory { requested: 10, free: 5 },
            FacilError::NotMapped { va: 0x1000 },
            FacilError::InvalidRequest("y".into()),
            FacilError::DeviceUnavailable { device: 2 },
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase() || s.starts_with("MapID"));
        }
    }

    #[test]
    fn map_fault_converts_to_not_mapped() {
        let e: FacilError = facil_dram::MapFault { addr: 0x2000 }.into();
        assert_eq!(e, FacilError::NotMapped { va: 0x2000 });
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<FacilError>();
    }
}
