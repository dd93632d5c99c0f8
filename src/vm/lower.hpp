#pragma once

#include "directive/ir.hpp"
#include "frontend/ast.hpp"
#include "frontend/source.hpp"
#include "vm/bytecode.hpp"

namespace llm4vv::vm {

/// Lowering configuration.
struct LowerOptions {
  frontend::Flavor flavor = frontend::Flavor::kOpenACC;
};

/// Lower a sema-checked Program to a bytecode Module. Directive constructs
/// become device regions per the mapping in DESIGN.md §5:
///
///  - OpenACC parallel/kernels/serial (with or without `loop`) and OpenMP
///    `target ...` compute constructs open a *device-mode* region whose
///    data clauses compile to enter/exit ClauseOps;
///  - `data` / `target data` open a host-mode region with the same clause
///    machinery;
///  - `enter data`/`exit data`/`update`/`target update` become one-shot
///    kDevAction ops;
///  - host-side constructs (omp parallel/for/simd/task/... and bare acc
///    `loop`) simply execute their body — the interpreter is sequential by
///    construction, which preserves every *correctness-observable* effect
///    of these constructs except data races (which the corpus does not
///    exercise);
///  - synchronization/no-op directives (wait, barrier, routine, declare...)
///    lower to nothing.
///
/// Precondition: `analyze()` ran without errors; lowering trusts symbol ids.
/// Pragma lines are read from `directives`, the table of the pass that
/// parsed and validated `program`.
Module lower(const frontend::Program& program, const LowerOptions& options,
             directive::DirectiveTable& directives);

/// lower() over a directive table of its own.
Module lower(const frontend::Program& program, const LowerOptions& options);

}  // namespace llm4vv::vm
