#pragma once

#include <cstdint>
#include <string>

#include "vm/bytecode.hpp"
#include "vm/memory.hpp"

namespace llm4vv::vm {

/// Execution budgets — the analogue of ulimits/timeouts on a real cluster.
struct ExecLimits {
  std::uint64_t max_steps = 50'000'000;   ///< instruction budget
  std::size_t max_output = 1u << 16;      ///< stdout bytes
  std::size_t max_frames = 512;           ///< call depth
  std::uint64_t max_cells = 1u << 22;     ///< memory cells

  bool operator==(const ExecLimits&) const = default;
};

/// Result of running a Module.
struct ExecResult {
  int return_code = 0;
  std::string stdout_text;
  std::string stderr_text;
  TrapKind trap = TrapKind::kNone;
  std::uint64_t steps = 0;
  /// Superinstruction sites the decode-time fusion pass rewrote (0 when
  /// fusion was off or the reference core ran — it never decodes).
  std::uint64_t fused_instructions = 0;
  /// Distinct fusion patterns among those sites.
  std::uint32_t fusion_patterns = 0;

  bool trapped() const noexcept { return trap != TrapKind::kNone; }
  bool ok() const noexcept { return !trapped() && return_code == 0; }
};

/// How the interpreter decodes and dispatches bytecode.
///
///  - kReference: the original per-instruction `switch` decode loop, kept
///    verbatim as the behavioural pin for differential testing (the same
///    role the tokenizer's `encode_reference` plays). Every other core
///    must match it byte-for-byte: outputs, traps, return codes, and step
///    accounting.
///  - kTable: a pre-decode pass lowers the module into flat per-chunk
///    streams of handler indices + packed operands, executed by a portable
///    function-pointer-table loop. Available in every build, and the
///    fastest core measured on GCC 12/x86 (the pre-decode + cached
///    frame/pc state is where the win is; see docs/BENCHMARKS.md).
///  - kThreaded: the same pre-decoded stream executed by a token-threaded
///    computed-goto core (each handler call site ends in its own indirect
///    jump, so the branch predictor learns per-opcode successor
///    patterns). Falls back to the table core when the compiler has no
///    computed goto or the build pinned `-DLLM4VV_VM_DISPATCH=table`;
///    dispatch_mode_name() reports the core actually running.
enum class DispatchMode { kReference, kTable, kThreaded };

/// True when this build's kThreaded core is real computed goto (GNU-style
/// `&&label`), false when it silently degrades to the table core.
bool threaded_dispatch_is_computed_goto() noexcept;

/// The dispatch core execute() uses when no mode is passed: kTable — the
/// fastest core in practice (modern indirect-branch predictors erase most
/// of computed goto's classic edge, and the outlined handlers compile
/// tighter than one giant label soup; both fast cores beat the reference
/// switch, the table core by >= 1.5x, gated in CI). kThreaded stays fully
/// supported and differential-tested for builds where it wins.
DispatchMode default_dispatch_mode() noexcept;

/// Resolved human-readable core name: "reference", "table", or
/// "computed-goto" (kThreaded reports "table" when it degraded).
const char* dispatch_mode_name(DispatchMode mode) noexcept;

/// Whether the fast cores fuse superinstructions by default: true unless the
/// build pinned -DLLM4VV_VM_FUSION=OFF (the CI matrix builds that leg). The
/// reference core never fuses — it does not even decode. An explicit
/// `fuse` argument to execute() overrides this either way, which is what the
/// differential suite uses to run the full 3-modes x fusion-on/off matrix.
bool default_fusion_enabled() noexcept;

/// Introspection over the superinstruction pattern table (the VM_FUSE list
/// in interp_ops.inc), for tests and telemetry labels: how many patterns the
/// decoder knows, each one's name (e.g. "LoadSlotPushConstMul"), component
/// count (2 or 3), and component opcodes.
std::size_t fusion_pattern_count() noexcept;
const char* fusion_pattern_name(std::size_t pattern) noexcept;
std::size_t fusion_pattern_length(std::size_t pattern) noexcept;
Op fusion_pattern_component(std::size_t pattern, std::size_t index) noexcept;

/// Execute a lowered module: run the global-init chunk, then `main`.
/// Traps are converted into non-zero return codes with a runtime-style
/// stderr line (segfault-like traps -> 139; device-mapping failures -> 1,
/// like the OpenACC runtime's FATAL ERROR path; budget exhaustion -> 124,
/// like `timeout(1)`).
ExecResult execute(const Module& module, const ExecLimits& limits = {});

/// Same, with an explicit dispatch core. All cores are semantically
/// identical; tests/vm_dispatch_test.cpp enforces byte equivalence. Fusion
/// follows default_fusion_enabled().
ExecResult execute(const Module& module, const ExecLimits& limits,
                   DispatchMode mode);

/// Same, with superinstruction fusion explicitly on or off (ignored by the
/// reference core, which never decodes). Every combination is semantically
/// identical — byte-for-byte outputs, traps, return codes, and step counts.
ExecResult execute(const Module& module, const ExecLimits& limits,
                   DispatchMode mode, bool fuse);

/// The pinned switch interpreter (== execute(..., DispatchMode::kReference));
/// differential tests diff the fast cores against this.
ExecResult execute_reference(const Module& module,
                             const ExecLimits& limits = {});

}  // namespace llm4vv::vm
