//! GLAP configuration.

use glap_codec::CodecKind;
use glap_qlearn::QParams;

/// All tunables of the GLAP protocol (learning, aggregation and
/// consolidation components).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlapConfig {
    /// Q-learning hyperparameters (Eq. 1).
    pub qparams: QParams,
    /// Only PMs whose CPU utilization is at or below this threshold run
    /// the learning phase locally, "to eliminate any impact on collocating
    /// VMs in highly loaded PMs" (§IV-B). The paper's experiments use PMs
    /// with at least 50% free CPU, i.e. a threshold of 0.5.
    pub learning_threshold: f64,
    /// Number of simulated sender/recipient migration steps (`k` in
    /// Algorithm 1) each eligible PM runs per learning round.
    pub learning_iterations: usize,
    /// Learning-phase rounds to run when training.
    pub learning_rounds: usize,
    /// Aggregation-phase gossip rounds to run after learning.
    pub aggregation_rounds: usize,
    /// Profile-list duplication factor in Algorithm 1 ("duplicate vms if
    /// required") so subset sums cover highly loaded states.
    pub profile_duplication: usize,
    /// Cyclon partial-view size.
    pub cyclon_cache: usize,
    /// Cyclon shuffle length.
    pub cyclon_shuffle: usize,
    /// The node wire's payload codec for aggregation-phase table legs
    /// (`glap-node`'s `NodeCore`). The default ([`CodecKind::Identity`])
    /// ships the dense table bit for bit. The simulator's trainer merges
    /// tables verbatim and does not read this field.
    pub codec: CodecKind,
}

impl Default for GlapConfig {
    fn default() -> Self {
        GlapConfig {
            qparams: QParams::default(),
            learning_threshold: 0.5,
            learning_iterations: 20,
            learning_rounds: 100,
            aggregation_rounds: 30,
            profile_duplication: 2,
            cyclon_cache: 8,
            cyclon_shuffle: 4,
            codec: CodecKind::default(),
        }
    }
}

impl GlapConfig {
    /// Sanity-checks the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.learning_threshold) {
            return Err(format!(
                "learning_threshold {} outside [0,1]",
                self.learning_threshold
            ));
        }
        if !(0.0..=1.0).contains(&self.qparams.alpha) || self.qparams.alpha == 0.0 {
            return Err(format!("alpha {} outside (0,1]", self.qparams.alpha));
        }
        if !(0.0..1.0).contains(&self.qparams.gamma) {
            return Err(format!("gamma {} outside [0,1)", self.qparams.gamma));
        }
        if self.learning_iterations == 0 {
            return Err("learning_iterations must be positive".into());
        }
        if self.profile_duplication == 0 {
            return Err("profile_duplication must be at least 1".into());
        }
        if self.cyclon_cache == 0 || self.cyclon_shuffle == 0 {
            return Err("cyclon parameters must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(GlapConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_threshold_rejected() {
        let cfg = GlapConfig {
            learning_threshold: 1.5,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn invalid_alpha_gamma_rejected() {
        let mut cfg = GlapConfig::default();
        cfg.qparams.alpha = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = GlapConfig::default();
        cfg.qparams.gamma = 1.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_iterations_rejected() {
        let cfg = GlapConfig {
            learning_iterations: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }
}
