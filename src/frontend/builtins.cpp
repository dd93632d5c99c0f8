#include "frontend/builtins.hpp"

#include <array>
#include <string_view>

namespace llm4vv::frontend {

namespace {

constexpr std::array<BuiltinInfo, 35> kBuiltins = {{
    // stdio
    {"printf", 1, true, BaseType::kInt, 0},
    // Fortran `print *, ...` lowers to this variadic writer.
    {"f90_print", 0, true, BaseType::kVoid, 0},
    {"fprintf", 2, true, BaseType::kInt, 0},
    {"puts", 1, false, BaseType::kInt, 0},
    // stdlib
    {"malloc", 1, false, BaseType::kVoid, 1},
    {"calloc", 2, false, BaseType::kVoid, 1},
    {"free", 1, false, BaseType::kVoid, 0},
    {"exit", 1, false, BaseType::kVoid, 0},
    {"abort", 0, false, BaseType::kVoid, 0},
    {"abs", 1, false, BaseType::kInt, 0},
    {"labs", 1, false, BaseType::kLong, 0},
    {"rand", 0, false, BaseType::kInt, 0},
    {"srand", 1, false, BaseType::kVoid, 0},
    // math
    {"fabs", 1, false, BaseType::kDouble, 0},
    {"fabsf", 1, false, BaseType::kFloat, 0},
    {"sqrt", 1, false, BaseType::kDouble, 0},
    {"sin", 1, false, BaseType::kDouble, 0},
    {"cos", 1, false, BaseType::kDouble, 0},
    {"exp", 1, false, BaseType::kDouble, 0},
    {"log", 1, false, BaseType::kDouble, 0},
    {"pow", 2, false, BaseType::kDouble, 0},
    {"floor", 1, false, BaseType::kDouble, 0},
    {"ceil", 1, false, BaseType::kDouble, 0},
    // openacc.h
    {"acc_get_num_devices", 1, false, BaseType::kInt, 0},
    {"acc_set_device_num", 2, false, BaseType::kVoid, 0},
    {"acc_get_device_num", 1, false, BaseType::kInt, 0},
    {"acc_init", 1, false, BaseType::kVoid, 0},
    {"acc_shutdown", 1, false, BaseType::kVoid, 0},
    {"acc_on_device", 1, false, BaseType::kInt, 0},
    // omp.h
    {"omp_get_num_threads", 0, false, BaseType::kInt, 0},
    {"omp_get_thread_num", 0, false, BaseType::kInt, 0},
    {"omp_get_max_threads", 0, false, BaseType::kInt, 0},
    {"omp_get_num_devices", 0, false, BaseType::kInt, 0},
    {"omp_is_initial_device", 0, false, BaseType::kInt, 0},
    {"omp_get_num_teams", 0, false, BaseType::kInt, 0},
}};

constexpr std::array<BuiltinConstant, 6> kConstants = {{
    {"acc_device_default", 0},
    {"acc_device_host", 1},
    {"acc_device_not_host", 2},
    {"acc_device_nvidia", 3},
    {"RAND_MAX", 2147483647L},
    {"NULL", 0},
}};

}  // namespace

std::span<const BuiltinInfo> builtin_functions() noexcept {
  return {kBuiltins.data(), kBuiltins.size()};
}

std::span<const BuiltinConstant> builtin_constants() noexcept {
  return {kConstants.data(), kConstants.size()};
}

const BuiltinInfo* find_builtin(std::string_view name) noexcept {
  if (name.empty()) return nullptr;
  for (const auto& b : kBuiltins) {
    if (b.name[0] == name[0] && name == b.name) return &b;
  }
  return nullptr;
}

const BuiltinConstant* find_builtin_constant(std::string_view name) noexcept {
  if (name.empty()) return nullptr;
  for (const auto& c : kConstants) {
    if (c.name[0] == name[0] && name == c.name) return &c;
  }
  return nullptr;
}

}  // namespace llm4vv::frontend
