#include "support/rng.hpp"

#include <string_view>

namespace llm4vv::support {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  std::uint64_t s = h;
  return splitmix64(s);
}

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  return fnv1a64_extend(kFnv1a64Basis, bytes);
}

std::uint64_t fnv1a64_extend(std::uint64_t state,
                             std::string_view bytes) noexcept {
  for (const char c : bytes) {
    state ^= static_cast<unsigned char>(c);
    state *= 0x100000001b3ULL;
  }
  return state;
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::next_below: bound == 0");
  // Lemire-style rejection to stay unbiased.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::next_in: lo > hi");
  const auto width =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (width == 0) return static_cast<std::int64_t>(next_u64());  // full range
  return lo + static_cast<std::int64_t>(next_below(width));
}

double Rng::next_double() noexcept {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

Rng Rng::fork() noexcept { return Rng(next_u64()); }

}  // namespace llm4vv::support
