//! # gdr-memsim — memory-system models
//!
//! Cycle-level memory substrates for the GDR-HGNN reproduction:
//!
//! * [`hbm`] — transaction-level HBM DRAM model (the Ramulator
//!   substitute): channels, banks, open-row tracking, DDR timing and
//!   bandwidth accounting.
//! * [`buffer`] — set-associative on-chip buffer residency model; each
//!   access reports the miss and victim that Fig. 2's "replacement
//!   times" statistic is counted from. A tag is found by scanning its set
//!   ([`SetAssocBuffer::access`], the GPU L2) or, when the caller names
//!   each tag by a dense key, through a residency index
//!   ([`SetAssocBuffer::access_keyed`], the NA engine).
//! * [`hashtable`] — the Decoupler's set-associative hash table.
//! * [`cacti_lite`] — analytic area / power estimation at TSMC 12 nm
//!   (the CACTI + Synopsys substitute).
//!
//! # Examples
//!
//! ```
//! use gdr_memsim::hbm::{HbmConfig, HbmModel, MemRequest};
//!
//! let mut hbm = HbmModel::new(HbmConfig::hbm1_512gbps());
//! let makespan = hbm.drain_trace(0, (0..64).map(|i| MemRequest::read(i * 256, 256)));
//! assert!(makespan > 0);
//! assert!(hbm.bandwidth_utilization(makespan) <= 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffer;
pub mod cacti_lite;
pub mod hashtable;
pub mod hbm;

pub use buffer::{Access, BufferStats, Replacement, SetAssocBuffer};
pub use cacti_lite::{CactiLite, MacroEstimate, TechNode};
pub use hashtable::{HashTable, HashTableStats};
pub use hbm::{HbmConfig, HbmModel, HbmStats, MemRequest};
