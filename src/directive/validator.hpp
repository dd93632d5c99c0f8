#pragma once

#include <functional>
#include <string>

#include "directive/ir.hpp"
#include "directive/spec.hpp"
#include "frontend/ast.hpp"
#include "frontend/diagnostics.hpp"
#include "frontend/parser.hpp"

namespace llm4vv::directive {

/// Validator configuration: which model/version the compiler persona
/// implements and how to resolve variable names in clause arguments.
struct ValidatorOptions {
  frontend::Flavor flavor = frontend::Flavor::kOpenACC;
  /// Supported spec version in tenths (OpenMP 4.5 -> 45, OpenACC 3.3 -> 33).
  /// Newer directives/clauses raise kVersionGate errors — this models the
  /// paper's "compilers do not support all OpenMP features introduced after
  /// version 4.5".
  int supported_version = 45;
  /// Resolves a variable name from a clause var-list; when it returns false
  /// the validator reports kBadClauseArg (matching real compilers, which
  /// resolve data-clause names against the enclosing scope). Null disables
  /// the check.
  std::function<bool(const std::string&)> is_declared;
};

/// Result of validating one directive line.
struct DirectiveValidation {
  bool ok = true;
  const DirectiveSpec* spec = nullptr;  ///< null when the name is unknown
};

/// Validate a parsed directive against the flavor's spec table: name known,
/// flavor matches the file, clauses applicable, clause arguments present /
/// absent / well-formed (reduction operators, map types), version gates, and
/// clause variable resolution. Diagnostics land in `diags` at `line`.
DirectiveValidation validate_directive(const DirectiveIR& dir,
                                       const ValidatorOptions& options,
                                       int line,
                                       frontend::DiagnosticEngine& diags);

/// Validate every pragma in a parsed program (the compile-stage entry
/// point), reading each line's parse from `directives`. Returns the number
/// of directives that failed.
int validate_program(const frontend::Program& program,
                     const ValidatorOptions& options,
                     frontend::DiagnosticEngine& diags,
                     DirectiveTable& directives);

/// validate_program over a table of its own.
int validate_program(const frontend::Program& program,
                     const ValidatorOptions& options,
                     frontend::DiagnosticEngine& diags);

/// True when this directive opens a construct that owns the next statement.
bool opens_construct(const DirectiveIR& dir);

/// True when this pragma line opens a construct that owns the next
/// statement (opens_construct() of the line parsed on the spot).
bool pragma_takes_statement(const std::string& pragma_text);

/// Parser options whose construct callback reads `directives`, so the
/// pass that owns the table parses each pragma line once.
frontend::ParserOptions parser_options(DirectiveTable& directives);

}  // namespace llm4vv::directive
