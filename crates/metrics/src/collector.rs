//! Per-round metric collection.
//!
//! `MetricsCollector` implements the engine's [`glap_dcsim::Observer`] and
//! samples, at the end of every round, exactly the series the paper's
//! figures plot: active PMs, overloaded PMs, migrations and their energy
//! overhead. Summaries expose the paper's (p10, median, p90) statistics.

use crate::sla::{sla_metrics, SlaMetrics};
use crate::stats::p10_median_p90;
use glap_cluster::DataCenter;
use glap_dcsim::Observer;

/// One round's sampled values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSample {
    /// Round index.
    pub round: u64,
    /// Active (switched-on) PMs.
    pub active_pms: usize,
    /// Active PMs with demand at/over capacity in some resource.
    pub overloaded_pms: usize,
    /// Migrations performed during this round.
    pub migrations: usize,
    /// Energy overhead of this round's migrations, joules.
    pub migration_energy_j: f64,
    /// Sleeping→active PM transitions during this round (server
    /// reactivations — the cost side of aggressive consolidation).
    pub wake_ups: usize,
}

/// Collects per-round series over a full simulation run.
#[derive(Debug, Clone, Default)]
pub struct MetricsCollector {
    /// All sampled rounds, in order.
    pub samples: Vec<RoundSample>,
}

impl MetricsCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-round overloaded-PM counts as `f64` (for order statistics).
    pub fn overloaded_series(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.overloaded_pms as f64)
            .collect()
    }

    /// Per-round migration counts.
    pub fn migration_series(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.migrations as f64).collect()
    }

    /// Cumulative migrations after each round (Figure 9's series).
    pub fn cumulative_migrations(&self) -> Vec<u64> {
        let mut total = 0u64;
        self.samples
            .iter()
            .map(|s| {
                total += s.migrations as u64;
                total
            })
            .collect()
    }

    /// Total migrations over the run.
    pub fn total_migrations(&self) -> u64 {
        self.samples.iter().map(|s| s.migrations as u64).sum()
    }

    /// Total migration energy overhead over the run, joules.
    pub fn total_migration_energy_j(&self) -> f64 {
        self.samples.iter().map(|s| s.migration_energy_j).sum()
    }

    /// Total sleeping→active transitions over the run.
    pub fn total_wake_ups(&self) -> u64 {
        self.samples.iter().map(|s| s.wake_ups as u64).sum()
    }

    /// `(p10, median, p90)` of the per-round overloaded-PM counts —
    /// Figure 7's bars.
    pub fn overloaded_summary(&self) -> (f64, f64, f64) {
        p10_median_p90(&self.overloaded_series())
    }

    /// Mean fraction of overloaded over active PMs (Figure 6's ratio).
    pub fn mean_overloaded_fraction(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let fr: f64 = self
            .samples
            .iter()
            .map(|s| {
                if s.active_pms == 0 {
                    0.0
                } else {
                    s.overloaded_pms as f64 / s.active_pms as f64
                }
            })
            .sum();
        fr / self.samples.len() as f64
    }

    /// Mean active-PM count over the run.
    pub fn mean_active_pms(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .map(|s| s.active_pms as f64)
            .sum::<f64>()
            / self.samples.len() as f64
    }
}

impl glap_snapshot::Checkpointable for MetricsCollector {
    /// Serializes every sampled round, so a resumed run's CSV output
    /// includes the pre-checkpoint rounds byte for byte.
    fn save(&self, w: &mut glap_snapshot::Writer) {
        w.put_usize(self.samples.len());
        for s in &self.samples {
            w.put_u64(s.round);
            w.put_usize(s.active_pms);
            w.put_usize(s.overloaded_pms);
            w.put_usize(s.migrations);
            w.put_f64(s.migration_energy_j);
            w.put_usize(s.wake_ups);
        }
    }

    fn restore(
        &mut self,
        r: &mut glap_snapshot::Reader<'_>,
    ) -> Result<(), glap_snapshot::SnapshotError> {
        let n = r.get_len()?;
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            samples.push(RoundSample {
                round: r.get_u64()?,
                active_pms: r.get_usize()?,
                overloaded_pms: r.get_usize()?,
                migrations: r.get_usize()?,
                migration_energy_j: r.get_f64()?,
                wake_ups: r.get_usize()?,
            });
        }
        self.samples = samples;
        Ok(())
    }
}

impl Observer for MetricsCollector {
    fn on_round_end(&mut self, round: u64, dc: &mut DataCenter) {
        let wake_ups = dc.take_wake_ups();
        let active_pms = dc.active_pm_count();
        let overloaded_pms = dc.overloaded_pm_count();
        let migrations = dc.take_migrations();
        self.samples.push(RoundSample {
            round,
            active_pms,
            overloaded_pms,
            migrations: migrations.len(),
            migration_energy_j: migrations.map(|m| m.energy_j).sum(),
            wake_ups,
        });
    }
}

/// End-of-run result bundle: the collector series plus final SLA metrics.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Algorithm name as reported by the policy.
    pub algorithm: String,
    /// Per-round series.
    pub collector: MetricsCollector,
    /// Final SLA metrics.
    pub sla: SlaMetrics,
    /// Offline BFD baseline over the final round's demands (Figure 6's
    /// reference line), filled by the harness.
    pub bfd_bins: usize,
    /// Total sleeping→active PM transitions over the run.
    pub wake_ups: u64,
}

impl RunResult {
    /// Assembles a result from a finished run.
    pub fn from_run(algorithm: &str, collector: MetricsCollector, dc: &DataCenter) -> Self {
        let wake_ups = collector.total_wake_ups();
        RunResult {
            algorithm: algorithm.to_string(),
            collector,
            sla: sla_metrics(dc),
            bfd_bins: 0,
            wake_ups,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glap_cluster::{DataCenterConfig, PmId, Resources, VmId, VmSpec};

    fn sample(round: u64, active: usize, over: usize, mig: usize, e: f64) -> RoundSample {
        RoundSample {
            round,
            active_pms: active,
            overloaded_pms: over,
            migrations: mig,
            migration_energy_j: e,
            wake_ups: 0,
        }
    }

    #[test]
    fn series_and_totals() {
        let mut c = MetricsCollector::new();
        c.samples.push(sample(0, 10, 2, 3, 5.0));
        c.samples.push(sample(1, 8, 1, 2, 3.0));
        c.samples.push(sample(2, 8, 0, 0, 0.0));
        assert_eq!(c.overloaded_series(), vec![2.0, 1.0, 0.0]);
        assert_eq!(c.cumulative_migrations(), vec![3, 5, 5]);
        assert_eq!(c.total_migrations(), 5);
        assert!((c.total_migration_energy_j() - 8.0).abs() < 1e-12);
        assert!((c.mean_active_pms() - 26.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn overloaded_fraction_handles_zero_active() {
        let mut c = MetricsCollector::new();
        c.samples.push(sample(0, 0, 0, 0, 0.0));
        c.samples.push(sample(1, 10, 5, 0, 0.0));
        assert!((c.mean_overloaded_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn observer_records_wake_ups() {
        let mut dc = DataCenter::new(DataCenterConfig::paper(2));
        dc.add_vm(VmSpec::EC2_MICRO);
        dc.place(VmId(0), PmId(0));
        assert!(dc.sleep_if_empty(PmId(1)));
        dc.wake(PmId(1));
        let mut c = MetricsCollector::new();
        c.on_round_end(0, &mut dc);
        assert_eq!(c.samples[0].wake_ups, 1);
        // Drained: a second observation sees none.
        c.on_round_end(1, &mut dc);
        assert_eq!(c.samples[1].wake_ups, 0);
        assert_eq!(c.total_wake_ups(), 1);
    }

    #[test]
    fn observer_samples_from_datacenter() {
        let mut dc = DataCenter::new(DataCenterConfig::paper(2));
        for _ in 0..2 {
            dc.add_vm(VmSpec::EC2_MICRO);
        }
        dc.place(VmId(0), PmId(0));
        dc.place(VmId(1), PmId(0));
        let mut src = |_: VmId, _: u64| Resources::splat(0.5);
        dc.step(&mut src);
        dc.migrate(VmId(0), PmId(1)).unwrap();
        let mut c = MetricsCollector::new();
        c.on_round_end(0, &mut dc);
        assert_eq!(c.samples.len(), 1);
        assert_eq!(c.samples[0].active_pms, 2);
        assert_eq!(c.samples[0].migrations, 1);
        assert!(c.samples[0].migration_energy_j > 0.0);
        // Drained: a second observation sees no migrations.
        c.on_round_end(1, &mut dc);
        assert_eq!(c.samples[1].migrations, 0);
    }

    #[test]
    fn summaries_report_order_statistics() {
        let mut c = MetricsCollector::new();
        for (i, &over) in [5usize, 1, 3, 2, 4].iter().enumerate() {
            c.samples.push(sample(i as u64, 10, over, over * 2, 0.0));
        }
        let (p10, med, p90) = c.overloaded_summary();
        assert_eq!(med, 3.0);
        assert!(p10 >= 1.0 && p90 <= 5.0);
    }

    #[test]
    fn checkpoint_round_trips_samples_byte_identically() {
        use glap_snapshot::{Checkpointable, Reader, Writer};
        let mut c = MetricsCollector::new();
        c.samples.push(sample(0, 10, 2, 3, 5.25));
        c.samples.push(sample(1, 8, 1, 2, -0.0));

        let mut w = Writer::new();
        c.save(&mut w);
        let bytes = w.into_bytes();

        let mut twin = MetricsCollector::new();
        twin.restore(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(c.samples, twin.samples);
        let mut w2 = Writer::new();
        twin.save(&mut w2);
        assert_eq!(bytes, w2.into_bytes());

        // Truncated records are rejected, never partially loaded.
        let mut broken = MetricsCollector::new();
        broken.samples.push(sample(9, 9, 9, 9, 9.0));
        assert!(broken
            .restore(&mut Reader::new(&bytes[..bytes.len() - 3]))
            .is_err());
        assert_eq!(broken.samples.len(), 1, "failed restore left state alone");
    }

    #[test]
    fn empty_collector_is_all_zero() {
        let c = MetricsCollector::new();
        assert_eq!(c.total_migrations(), 0);
        assert_eq!(c.mean_overloaded_fraction(), 0.0);
        assert_eq!(c.mean_active_pms(), 0.0);
        assert!(c.cumulative_migrations().is_empty());
    }

    /// A sample count larger than any allocation can hold is a snapshot
    /// error, not a capacity-overflow panic.
    #[test]
    fn restore_rejects_a_hostile_sample_count() {
        use glap_snapshot::{Checkpointable, Reader, SnapshotError, Writer};
        let mut w = Writer::new();
        w.put_usize(isize::MAX as usize / std::mem::size_of::<RoundSample>() + 1);
        let mut c = MetricsCollector::new();
        assert!(matches!(
            c.restore(&mut Reader::new(w.bytes())),
            Err(SnapshotError::Truncated)
        ));
    }
}
