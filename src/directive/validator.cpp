#include "directive/validator.hpp"

#include <string_view>

#include "support/strings.hpp"

namespace llm4vv::directive {

namespace {

using frontend::DiagCode;
using frontend::DiagnosticEngine;

std::string version_string(frontend::Flavor flavor, int tenths) {
  return std::string(frontend::flavor_name(flavor)) + " " +
         std::to_string(tenths / 10) + "." + std::to_string(tenths % 10);
}

/// Validates reduction clause arguments: "op:var[,var...]".
void check_reduction(const ClauseIR& clause, const ValidatorOptions& options,
                     int line, DiagnosticEngine& diags) {
  const auto colon = clause.argument.find(':');
  if (colon == std::string::npos) {
    diags.error(DiagCode::kBadClauseArg, line, 1,
                "reduction clause requires 'operator:variable-list'");
    return;
  }
  const std::string op =
      std::string(support::trim(clause.argument.substr(0, colon)));
  if (!is_valid_reduction_op(options.flavor, op)) {
    diags.error(DiagCode::kBadClauseArg, line, 1,
                "invalid reduction operator '" + op + "'");
  }
}

/// Validates OpenMP map clause arguments: "[maptype:] var-list".
void check_map(const ClauseIR& clause, int line, DiagnosticEngine& diags) {
  const auto colon = clause.argument.find(':');
  if (colon == std::string::npos) return;  // bare list: implicit tofrom
  std::string map_type =
      std::string(support::trim(clause.argument.substr(0, colon)));
  // A section subscript `a[0:n]` without a map type also contains ':';
  // only treat the prefix as a map type when it is a bare word.
  if (map_type.find_first_of("[](), ") != std::string::npos) return;
  // "always, to:" modifier.
  if (support::starts_with(map_type, "always")) {
    const auto comma = map_type.find(',');
    if (comma != std::string::npos) {
      map_type = std::string(support::trim(map_type.substr(comma + 1)));
    } else {
      return;
    }
  }
  if (!is_valid_map_type(map_type)) {
    diags.error(DiagCode::kBadClauseArg, line, 1,
                "invalid map type '" + map_type + "'");
  }
}

void check_variables(const ClauseIR& clause, const ValidatorOptions& options,
                     int line, DiagnosticEngine& diags) {
  if (!options.is_declared) return;
  // Clauses whose argument is not a var-list are skipped.
  static constexpr std::string_view kNonVarClauses[] = {
      "if", "num_threads", "num_gangs", "num_workers", "vector_length",
      "collapse", "schedule", "safelen", "simdlen", "device", "device_num",
      "device_type", "dtype", "default", "defaultmap", "proc_bind", "bind",
      "num_teams", "thread_limit", "dist_schedule", "final", "priority",
      "grainsize", "num_tasks", "hint", "tile", "gang", "worker", "vector",
      "wait", "async", "sizes", "severity", "message", "when", "filter",
      "ordered",
  };
  for (const std::string_view skip : kNonVarClauses) {
    if (clause.name == skip) return;
  }
  for (const auto& var : clause_variables(clause)) {
    if (!options.is_declared(var)) {
      diags.error(DiagCode::kBadClauseArg, line, 1,
                  "variable '" + var + "' in clause '" + clause.name +
                      "' is not declared in the enclosing scope");
    }
  }
}

}  // namespace

DirectiveValidation validate_directive(const DirectiveIR& dir,
                                       const ValidatorOptions& options,
                                       int line, DiagnosticEngine& diags) {
  DirectiveValidation result;

  if (!dir.parse_ok) {
    diags.error(DiagCode::kBadDirective, line, 1,
                "malformed directive: " + dir.parse_error);
    result.ok = false;
    return result;
  }

  if (dir.flavor != options.flavor) {
    // e.g. an `#pragma omp` line compiled as OpenACC. Real compilers ignore
    // unknown pragma namespaces with a warning; we do the same so mixed
    // files do not hard-fail the "wrong" flavor.
    diags.warning(DiagCode::kBadDirective, line, 1,
                  "ignoring " + std::string(flavor_name(dir.flavor)) +
                      " directive in " +
                      std::string(flavor_name(options.flavor)) +
                      " compilation");
    return result;
  }

  const SpecRegistry& registry = registry_for(options.flavor);
  std::size_t consumed = 0;
  const DirectiveSpec* spec = registry.match(dir.name_words, consumed);
  if (spec == nullptr) {
    diags.error(DiagCode::kBadDirective, line, 1,
                "unknown " + std::string(flavor_name(options.flavor)) +
                    " directive '" +
                    (dir.name_words.empty() ? std::string("<none>")
                                            : dir.name_words.front()) +
                    "'");
    result.ok = false;
    return result;
  }
  result.spec = spec;

  if (spec->min_version > options.supported_version) {
    diags.error(DiagCode::kVersionGate, line, 1,
                "directive '" + directive_name(dir) + "' requires " +
                    version_string(options.flavor, spec->min_version) +
                    " (compiling for " +
                    version_string(options.flavor,
                                   options.supported_version) +
                    ")");
    result.ok = false;
  }

  const auto check_clause = [&](const ClauseIR& clause) {
    const ClauseSpec* cs = SpecRegistry::find_clause(*spec, clause.name);
    if (cs == nullptr) {
      diags.error(DiagCode::kBadClause, line, 1,
                  "clause '" + clause.name +
                      "' is not valid on directive '" + directive_name(dir) +
                      "'");
      result.ok = false;
      return;
    }
    if (cs->min_version > options.supported_version) {
      diags.error(DiagCode::kVersionGate, line, 1,
                  "clause '" + clause.name + "' on '" + directive_name(dir) +
                      "' requires " +
                      version_string(options.flavor, cs->min_version));
      result.ok = false;
      return;
    }
    if (cs->arg == ArgPolicy::kRequired && !clause.has_argument) {
      diags.error(DiagCode::kBadClauseArg, line, 1,
                  "clause '" + clause.name + "' requires an argument");
      result.ok = false;
      return;
    }
    if (cs->arg == ArgPolicy::kNone && clause.has_argument) {
      diags.error(DiagCode::kBadClauseArg, line, 1,
                  "clause '" + clause.name + "' does not take an argument");
      result.ok = false;
      return;
    }
    if (clause.has_argument && clause.argument.empty()) {
      diags.error(DiagCode::kBadClauseArg, line, 1,
                  "clause '" + clause.name + "' has an empty argument");
      result.ok = false;
      return;
    }
    if (clause.name == "reduction" && clause.has_argument) {
      check_reduction(clause, options, line, diags);
    }
    if (clause.name == "map" && clause.has_argument) {
      check_map(clause, line, diags);
    }
    if (clause.has_argument) {
      check_variables(clause, options, line, diags);
    }
  };

  // Words past the matched composite name are argument-less clauses
  // (e.g. `loop gang vector` -> clauses gang, vector); they come first.
  for (std::size_t i = consumed; i < dir.name_words.size(); ++i) {
    ClauseIR bare;
    bare.name = dir.name_words[i];
    check_clause(bare);
  }
  for (const auto& clause : dir.clauses) check_clause(clause);

  result.ok = result.ok && !diags.has_errors();
  return result;
}

int validate_program(const frontend::Program& program,
                     const ValidatorOptions& options,
                     frontend::DiagnosticEngine& diags) {
  DirectiveTable directives;
  return validate_program(program, options, diags, directives);
}

int validate_program(const frontend::Program& program,
                     const ValidatorOptions& options,
                     frontend::DiagnosticEngine& diags,
                     DirectiveTable& directives) {
  // Resolve clause variables against the program-wide symbol table. This is
  // coarser than true scope resolution (any declared name anywhere counts)
  // but matches what the mutations can disturb: a deleted declaration
  // removes the name from the table entirely.
  ValidatorOptions opts = options;
  if (!opts.is_declared) {
    opts.is_declared = [&program](const std::string& name) {
      for (const auto& sym : program.symbols) {
        if (sym.name == name) return true;
      }
      return false;
    };
  }

  int failures = 0;
  for (const frontend::Stmt* pragma : program.pragmas) {
    const DirectiveIR& dir = directives.parse(pragma->pragma_text);
    const std::size_t errors_before = diags.error_count();
    const auto validation = validate_directive(dir, opts, pragma->line, diags);
    const bool had_new_errors = diags.error_count() > errors_before;
    if (had_new_errors) {
      ++failures;
      continue;
    }
    // Loop directives must own a loop statement.
    if (validation.spec != nullptr && validation.spec->wants_loop &&
        pragma->then_branch != nullptr) {
      const auto kind = pragma->then_branch->kind;
      const bool is_loop = kind == frontend::StmtKind::kFor ||
                           kind == frontend::StmtKind::kWhile ||
                           kind == frontend::StmtKind::kDoWhile ||
                           // A nested construct (e.g. `loop` under
                           // `parallel`) is also acceptable here.
                           kind == frontend::StmtKind::kPragma;
      if (!is_loop) {
        diags.error(frontend::DiagCode::kBadDirective, pragma->line, 1,
                    "directive '" + directive_name(dir) +
                        "' must be followed by a loop");
        ++failures;
      }
    }
  }
  return failures;
}

bool opens_construct(const DirectiveIR& dir) {
  if (!dir.parse_ok) return false;
  const SpecRegistry& registry = registry_for(dir.flavor);
  std::size_t consumed = 0;
  const DirectiveSpec* spec = registry.match(dir.name_words, consumed);
  return spec != nullptr && spec->is_construct;
}

bool pragma_takes_statement(const std::string& pragma_text) {
  return opens_construct(parse_directive(pragma_text));
}

frontend::ParserOptions parser_options(DirectiveTable& directives) {
  frontend::ParserOptions options;
  options.pragma_takes_statement = [&directives](const std::string& text) {
    return opens_construct(directives.parse(text));
  };
  return options;
}

}  // namespace llm4vv::directive
