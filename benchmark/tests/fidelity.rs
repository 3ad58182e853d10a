//! Probe fidelity: the traced stack must be the same program as the
//! untraced one. A probe that fell back to a provided trait method would
//! split a vectored op into per-buffer ops and every per-layer number would
//! describe a different system.

use lamassu_benchmark::metrics::self_time_residual_ns;
use lamassu_benchmark::run::repetition;
use lamassu_benchmark::schedule::{Scale, Schedule, StackKind, WorkloadId};
use lamassu_benchmark::stack::{Shim, Tier};

#[test]
fn traced_and_untraced_stacks_do_identical_backend_work() {
    for id in WorkloadId::ALL {
        let sched = Schedule::generate(id, Scale::SMOKE, 42);
        let plain = repetition(&sched, Shim::Lamassu, false);
        let traced = repetition(&sched, Shim::Lamassu, true);
        let name = id.name();

        // Identical final bytes: both read the whole file back after the
        // restart and compared it with the model, and every read in the
        // loop was checked.
        assert_eq!(
            plain.phase.failed, 0,
            "{name}: {:?}",
            plain.phase.first_error
        );
        assert_eq!(
            traced.phase.failed, 0,
            "{name}: {:?}",
            traced.phase.first_error
        );
        assert_eq!(plain.phase.attempted, traced.phase.attempted, "{name}");

        // Identical backend counters, member by member, before and after
        // the measured phase (so set-up is identical too).
        for (p, t) in [
            (&plain.before, &traced.before),
            (&plain.after, &traced.after),
        ] {
            assert_eq!(p.backend, t.backend, "{name}: backend IoCounters differ");
            assert_eq!(p.members, t.members, "{name}: per-member IoCounters differ");
            assert_eq!(
                p.modelled_io, t.modelled_io,
                "{name}: modelled I/O time differs"
            );
            assert_eq!(p.cache, t.cache, "{name}: cache stats differ");
            assert_eq!(
                p.resilience, t.resilience,
                "{name}: resilience stats differ"
            );
            assert_eq!(p.dist, t.dist, "{name}: router stats differ");
        }
        assert_eq!(plain.dirty_at_fsync, traced.dirty_at_fsync, "{name}");

        // Identical stored bytes.
        assert_eq!(
            plain.space.stored_bytes, traced.space.stored_bytes,
            "{name}"
        );
        assert_eq!(
            plain.space.unique_blocks, traced.space.unique_blocks,
            "{name}"
        );

        // Only the traced run has spans; one root per op plus the fsync,
        // and the tiers' self times add up to the roots exactly.
        assert!(plain.spans.is_empty(), "{name}");
        let roots = traced.spans.iter().filter(|s| s.tier == Tier::Core).count();
        assert_eq!(roots, sched.ops.len() + 1, "{name}");
        assert_eq!(self_time_residual_ns(&traced), 0, "{name}");
        let has = |t: Tier| traced.spans.iter().any(|s| s.tier == t);
        assert!(has(Tier::Storage), "{name}: no backend span");
        let tiered = id.stack() == StackKind::Tiered;
        for tier in [Tier::Cache, Tier::Resilience, Tier::Dist] {
            assert_eq!(has(tier), tiered, "{name}: {tier:?} spans");
        }
    }
}

#[test]
fn encfs_baseline_runs_the_same_schedules_correctly() {
    for id in WorkloadId::ALL {
        let sched = Schedule::generate(id, Scale::SMOKE, 42);
        let rep = repetition(&sched, Shim::Enc, false);
        assert_eq!(
            rep.phase.failed,
            0,
            "{}: {:?}",
            id.name(),
            rep.phase.first_error
        );
    }
}
