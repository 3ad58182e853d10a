//! One repetition of a workload: set-up, the measured closed loop, and the
//! correctness checks after it.
//!
//! One client thread issues each op only after the previous one returned
//! (the paper's FIO set-up: synchronous I/O, one job). Wall time and the
//! backends' virtual NFS transport time are read separately and never added.

use crate::nullfs::NullFs;
use crate::probe::{Call, Probe, Recorder, Span};
use crate::schedule::{read_stamp, Schedule, BLOCK, MIB};
use crate::stack::{
    self, Counters, Fd, FileSystem, ObjectStore, OpenFlags, Shim, Space, Stack, Tier,
};
use crate::sys;
use std::io::IoSlice;
use std::sync::Arc;
use std::time::Instant;

/// The file every workload runs on.
const PATH: &str = "/bench";
/// The file the unpopulated workloads warm the mount up with.
const WARM_PATH: &str = "/warm";

/// What the measured loop observed, whatever it ran against.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall seconds from the first op to the end of the final `fsync`.
    pub wall_s: f64,
    /// Latency of each op in ns, in schedule order.
    pub lat_ns: Vec<u32>,
    /// Latency of the final `fsync` in ns.
    pub fsync_ns: u64,
    /// Ops that returned an error, a short count, or wrong bytes.
    pub failed: u64,
    /// Ops attempted (the schedule's ops plus the `fsync`).
    pub attempted: u64,
    /// The first failure, for the report.
    pub first_error: Option<String>,
}

impl Phase {
    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(what());
        }
    }
}

/// Everything one repetition produced.
pub struct Rep {
    /// Key fetch + mount + populate (or warm-up), seconds.
    pub setup_s: f64,
    /// The measured loop.
    pub phase: Phase,
    /// Process CPU seconds used by the measured loop.
    pub cpu_s: f64,
    /// Heap allocations made during the measured loop.
    pub allocs: u64,
    /// Tier counters just before the loop.
    pub before: Counters,
    /// Tier counters just after the final `fsync`.
    pub after: Counters,
    /// Dirty blocks in the write-back cache when the final `fsync` began.
    pub dirty_at_fsync: usize,
    /// `open` of the file on the fresh mount after the restart, µs.
    pub open_us: f64,
    /// Backend space after post-process dedup.
    pub space: Space,
    /// Spans of the measured loop (empty when untraced).
    pub spans: Vec<Span>,
}

/// Runs the schedule's ops, then `fsync`, against `fs`. `before_fsync` runs
/// between the last op and the `fsync`.
fn measured_phase(
    fs: &dyn FileSystem,
    fd: Fd,
    sched: &Schedule,
    recorder: Option<&Recorder>,
    before_fsync: impl FnOnce(),
) -> Phase {
    let mut phase = Phase {
        lat_ns: Vec::with_capacity(sched.ops.len()),
        attempted: sched.ops.len() as u64 + 1,
        ..Phase::default()
    };
    let mut buf = vec![0u8; sched.max_io()];
    let start = Instant::now();
    for (i, op) in sched.ops.iter().enumerate() {
        let len = op.len as usize;
        let want = sched.bytes(op);
        let call = if op.write { Call::Write } else { Call::Read };
        let span = recorder.and_then(|r| r.enter(Tier::Core, call));
        let t0 = Instant::now();
        let done = if op.write {
            fs.write_vectored(fd, op.offset, &[IoSlice::new(want)])
        } else {
            fs.read_into(fd, op.offset, &mut buf[..len])
        };
        let lat = t0.elapsed();
        if let Some(r) = recorder {
            r.exit_op(span);
        }
        phase
            .lat_ns
            .push(lat.as_nanos().min(u32::MAX as u128) as u32);
        match done {
            Ok(n) if n == len => {
                if !op.write && buf[..len] != *want {
                    phase.fail(|| {
                        describe_mismatch(&format!("op {i}"), op.offset, &buf[..len], want)
                    });
                }
            }
            Ok(n) => phase.fail(|| format!("op {i} at {} moved {n} of {len} bytes", op.offset)),
            Err(e) => phase.fail(|| format!("op {i} at {}: {e}", op.offset)),
        }
    }
    before_fsync();
    let span = recorder.and_then(|r| r.enter(Tier::Core, Call::Fsync));
    let t0 = Instant::now();
    let synced = fs.fsync(fd);
    phase.fsync_ns = t0.elapsed().as_nanos() as u64;
    if let Some(r) = recorder {
        r.exit_op(span);
    }
    if let Err(e) = synced {
        phase.fail(|| format!("fsync: {e}"));
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// Names the first differing block and both stamps.
fn describe_mismatch(what: &str, offset: u64, got: &[u8], want: &[u8]) -> String {
    let at = got.iter().zip(want).position(|(a, b)| a != b).unwrap_or(0);
    let block = at / BLOCK * BLOCK;
    let stamp = |b: &[u8]| read_stamp(&b[block..]);
    format!(
        "{what}: wrong bytes at file offset {}; stamp (block, version) read {:?}, expected {:?}",
        offset + at as u64,
        stamp(got),
        stamp(want)
    )
}

/// Writes `data` to a new file with writes of `io` bytes and syncs it.
fn write_file(fs: &dyn FileSystem, path: &str, data: &[u8], io: usize) -> stack::FsResult<Fd> {
    let fd = fs.create(path)?;
    for (i, chunk) in data.chunks(io).enumerate() {
        fs.write(fd, (i * io) as u64, chunk)?;
    }
    fs.fsync(fd)?;
    Ok(fd)
}

/// One repetition on a fresh stack: set-up, measured loop, restart, checks.
pub fn repetition(sched: &Schedule, shim: Shim, traced: bool) -> Rep {
    // Room for every span of the loop: the tiered stack records about 50
    // per 4 KiB op (most of them accounting reads), a 1 MiB op a few per block.
    let capacity = 96 * sched.ops.len() + 8 * sched.user_blocks() as usize;
    let recorder = traced.then(|| Recorder::new(capacity));
    let wrap = |tier: Tier, store: Arc<dyn ObjectStore>| -> Arc<dyn ObjectStore> {
        match &recorder {
            Some(r) => Arc::new(Probe::new(tier, store, r.clone())),
            None => store,
        }
    };

    let t_setup = Instant::now();
    let keys = stack::fetch_keys();
    let stack = Stack::build(
        sched.id.stack(),
        shim,
        sched.scale.cache_blocks(),
        keys,
        &wrap,
    );
    let fs = stack.fs();
    let fd = if sched.id.populated() {
        write_file(fs, PATH, &sched.image, MIB)
    } else {
        // Nothing to populate: warm the mount (buffer pools, thread-locals,
        // the backend's allocator) on a scratch file an eighth of the size
        // written the way the loop writes, so lazy set-up is not charged to
        // the first ops of the loop.
        let warm = &sched.final_image[..sched.final_image.len() / 8];
        write_file(fs, WARM_PATH, warm, sched.max_io())
            .and_then(|fd| fs.close(fd))
            .and_then(|()| fs.remove(WARM_PATH))
            .and_then(|()| fs.create(PATH))
    }
    .expect("set-up on a fresh in-memory stack cannot fail");
    let setup_s = t_setup.elapsed().as_secs_f64();

    let before = stack.counters();
    let mut dirty_at_fsync = 0;
    let (cpu0, allocs0) = (sys::cpu_seconds(), sys::allocations());
    if let Some(r) = &recorder {
        r.enable(true);
    }
    let mut phase = measured_phase(fs, fd, sched, recorder.as_deref(), || {
        dirty_at_fsync = stack.dirty_cache_blocks();
    });
    if let Some(r) = &recorder {
        r.enable(false);
        if r.dropped() > 0 {
            phase.fail(|| format!("span buffer too small: {} spans dropped", r.dropped()));
        }
    }
    let cpu_s = cpu0.zip(sys::cpu_seconds()).map_or(0.0, |(a, b)| b - a);
    let allocs = sys::allocations() - allocs0;
    let after = stack.counters();

    // Durability: acknowledged-and-synced writes must survive a restart
    // from backend bytes only. The first mount is dropped without `close`.
    let stack = stack.restart();
    let fs = stack.fs();
    let t_open = Instant::now();
    let opened = fs.open(PATH, OpenFlags::default());
    let open_us = t_open.elapsed().as_secs_f64() * 1e6;
    phase.attempted += 1;
    match opened {
        Err(e) => phase.fail(|| format!("open after restart: {e}")),
        Ok(fd) => read_back(fs, fd, &sched.final_image, &mut phase),
    }
    phase.attempted += 1;
    if !stack.verify_clean(PATH) {
        phase.fail(|| "LamassuFs::verify is not clean after restart".to_string());
    }
    Rep {
        setup_s,
        phase,
        cpu_s,
        allocs,
        before,
        after,
        dirty_at_fsync,
        open_us,
        space: stack.space(),
        spans: recorder.map(|r| r.spans()).unwrap_or_default(),
    }
}

/// Reads the whole file with 1 MiB reads and compares it with the model.
fn read_back(fs: &dyn FileSystem, fd: Fd, model: &[u8], phase: &mut Phase) {
    phase.attempted += 1;
    match fs.len(fd) {
        Ok(n) if n == model.len() as u64 => {}
        Ok(n) => phase.fail(|| format!("file is {n} bytes after restart, model {}", model.len())),
        Err(e) => phase.fail(|| format!("len after restart: {e}")),
    }
    let mut buf = vec![0u8; MIB];
    for (i, want) in model.chunks(MIB).enumerate() {
        let offset = (i * MIB) as u64;
        phase.attempted += 1;
        match fs.read_into(fd, offset, &mut buf[..want.len()]) {
            Ok(n) if n == want.len() && buf[..n] == *want => {}
            Ok(n) if n == want.len() => {
                phase.fail(|| describe_mismatch("read-back", offset, &buf[..n], want))
            }
            Ok(n) => phase.fail(|| format!("read-back at {offset}: {n} of {} bytes", want.len())),
            Err(e) => phase.fail(|| format!("read-back at {offset}: {e}")),
        }
    }
}

/// Replays the schedule against [`NullFs`]: the harness's own cost.
pub fn harness_only(sched: &Schedule) -> Phase {
    let fs = NullFs::default();
    let fd = write_file(&fs, PATH, &sched.image, MIB).expect("NullFs cannot fail");
    measured_phase(&fs, fd, sched, None, || {})
}
