//! GRMP — the gossip resource-management protocol of Wuhib, Yanggratoke &
//! Stadler (JNSM 2015), instantiated for server consolidation as the GLAP
//! paper evaluates it: "an aggressive gossip based protocol with a static
//! upper threshold 0.8".
//!
//! Each round every active PM gossips with a random Cyclon neighbour; the
//! pair greedily moves VMs from the less-utilized side to the other
//! (largest VM first, multi-dimensional bin-packing style) as long as the
//! recipient stays at or below the threshold *on its current utilization*.
//! No demand history, no prediction — which is exactly why it overloads
//! PMs when VM load later rises.

use glap_cluster::{DataCenter, PmId, Resources, VmId};
use glap_cyclon::{CyclonOverlay, RoundIo};
use glap_dcsim::{ConsolidationPolicy, NetworkModel, RoundCtx, SimRng};
use glap_telemetry::{AbortReason, EventKind, Tracer};
use rand::seq::SliceRandom;

/// Configuration of the GRMP baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrmpConfig {
    /// Static per-resource utilization cap for accepting VMs (paper: 0.8).
    pub threshold: f64,
    /// Cyclon view size.
    pub cyclon_cache: usize,
    /// Cyclon shuffle length.
    pub cyclon_shuffle: usize,
}

impl Default for GrmpConfig {
    fn default() -> Self {
        GrmpConfig {
            threshold: 0.8,
            cyclon_cache: 8,
            cyclon_shuffle: 4,
        }
    }
}

/// The GRMP consolidation policy.
#[derive(Debug, Clone)]
pub struct GrmpPolicy {
    cfg: GrmpConfig,
    overlay: CyclonOverlay,
}

impl GrmpPolicy {
    /// Builds the policy.
    pub fn new(cfg: GrmpConfig) -> Self {
        GrmpPolicy {
            cfg,
            overlay: CyclonOverlay::new(0, cfg.cyclon_cache, cfg.cyclon_shuffle),
        }
    }

    /// Moves VMs from `src` to `dst`, largest current demand first, while
    /// `dst` stays within the threshold. Every transfer is a handshake
    /// over the management network; the drain aborts if `dst` crashes or
    /// the handshake is lost mid-stream. Returns the number migrated.
    fn drain(
        &mut self,
        dc: &mut DataCenter,
        net: &mut NetworkModel,
        src: PmId,
        dst: PmId,
        tracer: &Tracer,
    ) -> usize {
        let cap = Resources::splat(self.cfg.threshold);
        let mut vms: Vec<VmId> = dc.pm(src).vms().to_vec();
        // Largest total demand first — aggressive packing.
        vms.sort_by(|&a, &b| {
            dc.vm(b)
                .current
                .total()
                .partial_cmp(&dc.vm(a).current.total())
                .expect("finite demands")
        });
        let mut moved = 0;
        for vm in vms {
            let after = dc.pm(dst).demand() + dc.vm(vm).current;
            if after.fits_within(cap) {
                tracer.emit(EventKind::MigrationProposed {
                    vm: vm.0,
                    from: src.0,
                    to: dst.0,
                });
                if !net.is_up(dst.0) || !net.request(src.0, dst.0).is_ok() {
                    tracer.emit(EventKind::MigrationAborted {
                        from: src.0,
                        to: dst.0,
                        reason: AbortReason::Unreachable,
                    });
                    break;
                }
                dc.migrate(vm, dst).expect("destination is active");
                moved += 1;
            }
        }
        moved
    }

    fn exchange(
        &mut self,
        dc: &mut DataCenter,
        net: &mut NetworkModel,
        p: PmId,
        q: PmId,
        tracer: &Tracer,
    ) {
        // Overload relief first: an overloaded PM pushes load out.
        for (over, other) in [(p, q), (q, p)] {
            if dc.pm(over).is_overloaded() {
                self.drain(dc, net, over, other, tracer);
            }
        }
        if dc.pm(p).is_overloaded() || dc.pm(q).is_overloaded() {
            return;
        }
        // Aggressive consolidation: less-utilized side empties itself.
        let (sender, receiver) = if dc.pm(p).demand().total() <= dc.pm(q).demand().total() {
            (p, q)
        } else {
            (q, p)
        };
        self.drain(dc, net, sender, receiver, tracer);
        if dc.sleep_if_empty(sender) {
            self.overlay.set_dead(sender.0);
        }
    }
}

impl ConsolidationPolicy for GrmpPolicy {
    fn name(&self) -> &'static str {
        "grmp"
    }

    fn init(&mut self, dc: &mut DataCenter, rng: &mut SimRng) {
        self.overlay =
            CyclonOverlay::new(dc.n_pms(), self.cfg.cyclon_cache, self.cfg.cyclon_shuffle);
        self.overlay.bootstrap_random(rng);
        for pm in dc.pms() {
            if !pm.is_active() {
                self.overlay.set_dead(pm.id().0);
            }
        }
    }

    fn round(&mut self, ctx: &mut RoundCtx<'_>) {
        let dc = &mut *ctx.dc;
        let rng = &mut *ctx.rng;
        let net = &mut *ctx.net;
        let tracer = ctx.tracer;
        self.overlay.run_round(
            rng,
            RoundIo::full(&mut |a, b| net.request(a, b).is_ok(), tracer),
        );
        let mut order: Vec<PmId> = dc.active_pm_ids().collect();
        order.shuffle(rng);
        for p in order {
            if !dc.pm(p).is_active() || !net.is_up(p.0) {
                continue;
            }
            let Some(q) = self.overlay.random_alive_peer(p.0, rng) else {
                continue;
            };
            let q = PmId(q);
            if !dc.pm(q).is_active() || !net.is_up(q.0) {
                self.overlay.node_mut(p.0).remove(q.0);
                continue;
            }
            if !net.request(p.0, q.0).is_ok() {
                continue;
            }
            tracer.emit(EventKind::ExchangeOpened { p: p.0, q: q.0 });
            self.exchange(dc, net, p, q, tracer);
        }
    }

    /// GRMP's only mutable state is its Cyclon overlay.
    fn save_state(&self, w: &mut glap_snapshot::Writer) {
        use glap_snapshot::Checkpointable;
        w.put_usize(self.overlay.len());
        self.overlay.save(w);
    }

    /// Restores into a freshly built policy (same `GrmpConfig`), replacing
    /// [`ConsolidationPolicy::init`] on resume.
    fn restore_state(
        &mut self,
        r: &mut glap_snapshot::Reader<'_>,
    ) -> Result<(), glap_snapshot::SnapshotError> {
        use glap_snapshot::Checkpointable;
        let n = r.get_len()?;
        let mut overlay = CyclonOverlay::new(n, self.cfg.cyclon_cache, self.cfg.cyclon_shuffle);
        overlay.restore(r)?;
        self.overlay = overlay;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glap_cluster::{DataCenterConfig, VmSpec};
    use glap_dcsim::{run_simulation, stream_rng, Stream};

    fn setup(n_pms: usize, ratio: usize, seed: u64) -> DataCenter {
        let mut dc = DataCenter::new(DataCenterConfig::paper(n_pms));
        for _ in 0..n_pms * ratio {
            dc.add_vm(VmSpec::EC2_MICRO);
        }
        dc.random_placement(&mut stream_rng(seed, Stream::Placement));
        dc
    }

    #[test]
    fn grmp_consolidates_aggressively() {
        let mut dc = setup(20, 2, 1);
        let mut trace = |_: VmId, _: u64| Resources::splat(0.3);
        let mut policy = GrmpPolicy::new(GrmpConfig::default());
        run_simulation(&mut dc, &mut trace, &mut policy, &mut [], 30, 1);
        assert!(dc.active_pm_count() < 20);
        dc.check_invariants().unwrap();
    }

    #[test]
    fn recipients_never_pushed_past_threshold_at_accept_time() {
        let mut dc = setup(10, 3, 2);
        let mut trace = |_: VmId, _: u64| Resources::splat(0.5);
        let mut policy = GrmpPolicy::new(GrmpConfig::default());
        // One round: after stepping, no recipient exceeds 0.8 unless its
        // own VMs grew (they cannot in one constant-demand round).
        run_simulation(&mut dc, &mut trace, &mut policy, &mut [], 1, 2);
        for pm in dc.pms() {
            assert!(
                pm.demand().cpu() <= 0.8 + 1e-9 || pm.vm_count() == 0,
                "PM pushed past threshold: {:?}",
                pm.demand()
            );
        }
    }

    #[test]
    fn overloaded_pm_drains_to_partner() {
        let mut dc = setup(4, 8, 3);
        let mut trace = |_: VmId, r: u64| {
            if r == 0 {
                Resources::splat(1.0)
            } else {
                Resources::splat(0.1)
            }
        };
        let mut policy = GrmpPolicy::new(GrmpConfig::default());
        run_simulation(&mut dc, &mut trace, &mut policy, &mut [], 8, 3);
        assert_eq!(dc.overloaded_pm_count(), 0);
    }

    #[test]
    fn grmp_beats_glap_on_pure_packing_under_static_load() {
        // GRMP's defining trait: more aggressive switch-off than
        // prediction-based methods under stable load.
        let mut dc = setup(16, 2, 4);
        let mut trace = |_: VmId, _: u64| Resources::splat(0.25);
        let mut policy = GrmpPolicy::new(GrmpConfig::default());
        run_simulation(&mut dc, &mut trace, &mut policy, &mut [], 40, 4);
        // 32 VMs at 25%: each ~0.047 CPU / 0.037 MEM → all fit in 1-2 PMs
        // under the 0.8 cap.
        assert!(
            dc.active_pm_count() <= 4,
            "active: {}",
            dc.active_pm_count()
        );
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let mut dc = setup(12, 3, 5);
            let mut trace =
                |vm: VmId, r: u64| Resources::splat(0.2 + 0.05 * ((vm.0 + r as u32) % 4) as f64);
            let mut policy = GrmpPolicy::new(GrmpConfig::default());
            run_simulation(&mut dc, &mut trace, &mut policy, &mut [], 15, 5);
            (dc.active_pm_count(), dc.total_migrations())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn checkpoint_round_trips_overlay_state() {
        use glap_snapshot::{Reader, Writer};
        let mut dc = setup(12, 3, 5);
        let mut trace =
            |vm: VmId, r: u64| Resources::splat(0.2 + 0.05 * ((vm.0 + r as u32) % 4) as f64);
        let mut policy = GrmpPolicy::new(GrmpConfig::default());
        run_simulation(&mut dc, &mut trace, &mut policy, &mut [], 10, 5);

        let mut w = Writer::new();
        policy.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut twin = GrmpPolicy::new(GrmpConfig::default());
        twin.restore_state(&mut Reader::new(&bytes)).unwrap();
        let mut w2 = Writer::new();
        twin.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
        for i in 0..12u32 {
            assert_eq!(
                policy.overlay.node(i).neighbors().collect::<Vec<_>>(),
                twin.overlay.node(i).neighbors().collect::<Vec<_>>()
            );
        }
    }

    /// An overlay size the snapshot cannot back is a snapshot error; the
    /// overlay is never sized from it.
    #[test]
    fn restore_rejects_a_hostile_overlay_size() {
        use glap_snapshot::{Reader, SnapshotError, Writer};
        let mut w = Writer::new();
        w.put_usize(1 << 40);
        w.put_bytes(&[0; 64]);
        let mut policy = GrmpPolicy::new(GrmpConfig::default());
        assert!(matches!(
            policy.restore_state(&mut Reader::new(w.bytes())),
            Err(SnapshotError::Truncated)
        ));
    }
}
