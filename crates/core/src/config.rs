//! Pipeline configuration.

use octo_cfg::CfgMode;
use octo_taint::{ContextMode, Granularity};
use octo_vm::Limits;

/// Extra symbolic-file bytes beyond the original PoC length (guiding
/// inputs may be longer than `S`'s).
const FILE_SLACK: u64 = 64;

/// Configuration shared by all four phases.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// θ — loop-state iteration cap for directed symbolic execution
    /// (paper §IV-B sets 120).
    pub theta: u32,
    /// CFG recovery mode for `T` (paper §IV-B: "we determine to use the
    /// dynamic CFG mainly; however, we have the option of using a static
    /// CFG").
    pub cfg_mode: CfgMode,
    /// Concrete-execution limits (P1 on `S`, P4 on `T`). The instruction
    /// watchdog doubles as the CWE-835 infinite-loop detector.
    pub vm_limits: Limits,
    /// Taint context mode (context-aware, or the Table III context-free
    /// baseline).
    pub taint_context: ContextMode,
    /// Taint granularity (byte-level, or the word-level ablation).
    pub taint_granularity: Granularity,
    /// Directed symbolic execution instruction budget.
    pub symex_step_budget: u64,
    /// Bound on the directed engine's backtracking stack.
    pub max_fallbacks: usize,
    /// Loop acceleration inside `ℓ` (the paper's §III-D future work,
    /// implemented as an opt-in extension): forced branches are taken
    /// without charging the θ budget, so vulnerabilities needing more
    /// than θ loop iterations still verify.
    pub loop_acceleration: bool,
    /// Phase P0 (opt-in): static pre-screen of `T` before any symbolic
    /// execution. When `octo-lint`'s interprocedural analysis proves `ep`
    /// statically unreachable, or proves every call site passes constant
    /// arguments that conflict with the ones P1 recorded, the pipeline
    /// short-circuits to a Type-III verdict.
    pub static_prescreen: bool,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            theta: 120,
            cfg_mode: CfgMode::Dynamic,
            vm_limits: Limits::default(),
            taint_context: ContextMode::ContextAware,
            taint_granularity: Granularity::Byte,
            symex_step_budget: 2_000_000,
            max_fallbacks: 4096,
            loop_acceleration: false,
            static_prescreen: false,
        }
    }
}

impl PipelineConfig {
    /// The Table III ablation: context-free crash-primitive extraction.
    pub fn context_free(mut self) -> PipelineConfig {
        self.taint_context = ContextMode::ContextFree;
        self
    }

    /// Uses the static CFG instead of the dynamic one.
    pub fn static_cfg(mut self) -> PipelineConfig {
        self.cfg_mode = CfgMode::Static;
        self
    }

    /// Overrides θ.
    pub fn with_theta(mut self, theta: u32) -> PipelineConfig {
        self.theta = theta;
        self
    }

    /// Enables loop acceleration (see [`PipelineConfig::loop_acceleration`]).
    pub fn accelerate_loops(mut self) -> PipelineConfig {
        self.loop_acceleration = true;
        self
    }

    /// Enables the P0 static pre-screen
    /// (see [`PipelineConfig::static_prescreen`]).
    pub fn with_static_prescreen(mut self) -> PipelineConfig {
        self.static_prescreen = true;
        self
    }

    /// The symbolic file length for a PoC of `poc_len` bytes: the PoC
    /// length plus `FILE_SLACK` (64) bytes.
    pub fn resolve_file_len(&self, poc_len: usize) -> u64 {
        poc_len as u64 + FILE_SLACK
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PipelineConfig::default();
        assert_eq!(c.theta, 120);
        assert_eq!(c.cfg_mode, CfgMode::Dynamic);
        assert_eq!(c.taint_context, ContextMode::ContextAware);
    }

    #[test]
    fn file_len_resolution() {
        let c = PipelineConfig::default();
        assert_eq!(c.resolve_file_len(100), 164);
        assert_eq!(c.resolve_file_len(0), 64);
    }

    #[test]
    fn builders_toggle_modes() {
        let c = PipelineConfig::default()
            .context_free()
            .static_cfg()
            .with_theta(7);
        assert_eq!(c.taint_context, ContextMode::ContextFree);
        assert_eq!(c.cfg_mode, CfgMode::Static);
        assert_eq!(c.theta, 7);
    }
}
