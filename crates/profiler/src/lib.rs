//! # dcd-profiler
//!
//! nsys-style analysis over `dcd-gpusim` traces, reached through one value
//! type: [`ProfileReport::from_trace`]. The report reproduces the paper's
//! §7 views with typed accessors:
//!
//! * [`ProfileReport::api`] / [`ProfileReport::api_pct`] — per-CUDA-API call
//!   counts, total time and share of the API timeline (Fig 8:
//!   `cuLibraryLoadData` vs `cudaDeviceSynchronize`);
//! * [`ProfileReport::memops`] — DMA transfer statistics and the per-image
//!   memop timing the paper plots against batch size (Fig 7);
//! * [`ProfileReport::kernels`] / [`ProfileReport::kernel_pct`] — device time
//!   share per operator class (Table 3);
//! * [`ProfileReport::timeline`] — busy spans, occupancy and concurrency;
//! * [`ProfileReport::render`] — all of the above as a text report shaped
//!   like `nsys profile --stats=true` output.
//!
//! Attaching host spans ([`ProfileReport::with_host_spans`], recorded by
//! `dcd-obs`) adds a host section to the text report and unlocks
//! [`ProfileReport::chrome_trace`]: a merged host+device timeline in
//! Chrome-trace JSON that loads directly in [Perfetto](https://ui.perfetto.dev).

pub mod merge;
pub mod report;
pub mod timeline;

pub use merge::{
    ChromeArgs, ChromeEvent, ChromeTrace, API_TID, DEVICE_PID, DMA_TID, FAULT_TID, HOST_PID,
};
pub use report::{ApiUsage, FaultCount, HostOpStats, KernelShare, MemopStats, ProfileReport};
pub use timeline::TimelineStats;
