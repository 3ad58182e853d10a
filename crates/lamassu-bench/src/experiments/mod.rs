//! One module per experiment of the paper's evaluation (§4).
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`fig6`] | Figure 6 — storage efficiency vs synthetic redundancy α |
//! | [`table1`] | Table 1 — storage efficiency with (synthetic) VM images |
//! | [`throughput`] | Figures 7 and 8 — FIO throughput on NFS / RAM disk |
//! | [`fig9`] | Figure 9 — LamassuFS latency breakdown |
//! | [`fig10`] | Figure 10 — throughput vs reserved key slots R |
//! | [`fig11`] | Figure 11 — storage efficiency vs reserved key slots R |
//! | [`ablation`] | §4.2 note — block-aligned vs unaligned EncFS over NFS |
//! | [`ablation_ce_granularity`] | §5.2 — per-block vs per-file convergent encryption |
//! | [`ablation_key_server`] | §1 — local KDF vs DupLESS-style server-aided keys |
//! | [`chaos`] | beyond the paper — self-healing under transient faults and a burst outage |

pub mod ablation;
pub mod ablation_ce_granularity;
pub mod ablation_key_server;
pub mod chaos;
pub mod fig10;
pub mod fig11;
pub mod fig6;
pub mod fig9;
pub mod table1;
pub mod throughput;

use lamassu_core::FileSystem;

/// Writes `data` to `path` through `fs` in 1 MiB chunks and closes the file.
pub(crate) fn write_file(fs: &dyn FileSystem, path: &str, data: &[u8]) {
    let fd = fs.create(path).expect("fresh path in a fresh mount");
    for (i, chunk) in data.chunks(1024 * 1024).enumerate() {
        fs.write(fd, (i * 1024 * 1024) as u64, chunk)
            .expect("benchmark write");
    }
    fs.fsync(fd).expect("benchmark fsync");
    fs.close(fd).expect("benchmark close");
}
