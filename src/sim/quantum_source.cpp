#include "sim/quantum_source.hpp"

#include <random>

#include "util/error.hpp"

namespace vrdf::sim {

namespace {

class ConstantSource final : public QuantumSource {
public:
  explicit ConstantSource(std::int64_t value) : value_(value) {}
  std::int64_t next(std::int64_t) override { return value_; }
  std::unique_ptr<QuantumSource> clone() const override {
    return std::make_unique<ConstantSource>(value_);
  }
  std::string describe() const override {
    return "constant(" + std::to_string(value_) + ")";
  }

private:
  std::int64_t value_;
};

class CyclicSource final : public QuantumSource {
public:
  explicit CyclicSource(std::vector<std::int64_t> values)
      : values_(std::move(values)) {
    VRDF_REQUIRE(!values_.empty(), "cyclic source needs at least one value");
  }
  std::int64_t next(std::int64_t firing_index) override {
    const auto n = static_cast<std::int64_t>(values_.size());
    return values_[static_cast<std::size_t>(firing_index % n)];
  }
  std::unique_ptr<QuantumSource> clone() const override {
    return std::make_unique<CyclicSource>(values_);
  }
  std::string describe() const override {
    return "cyclic(" + std::to_string(values_.size()) + " values)";
  }

private:
  std::vector<std::int64_t> values_;
};

class ScriptedSource final : public QuantumSource {
public:
  ScriptedSource(std::vector<std::int64_t> prefix, std::int64_t tail)
      : prefix_(std::move(prefix)), tail_(tail) {}
  std::int64_t next(std::int64_t firing_index) override {
    const auto i = static_cast<std::size_t>(firing_index);
    return i < prefix_.size() ? prefix_[i] : tail_;
  }
  std::unique_ptr<QuantumSource> clone() const override {
    return std::make_unique<ScriptedSource>(prefix_, tail_);
  }
  std::string describe() const override {
    return "scripted(" + std::to_string(prefix_.size()) + " prefix, tail " +
           std::to_string(tail_) + ")";
  }

private:
  std::vector<std::int64_t> prefix_;
  std::int64_t tail_;
};

class UniformRandomSource final : public QuantumSource {
public:
  UniformRandomSource(dataflow::RateSet set, std::uint64_t seed)
      : set_(std::move(set)), seed_(seed), rng_(seed) {}
  std::int64_t next(std::int64_t) override {
    std::uniform_int_distribution<std::size_t> dist(0, set_.size() - 1);
    return set_.nth(dist(rng_));
  }
  std::unique_ptr<QuantumSource> clone() const override {
    return std::make_unique<UniformRandomSource>(set_, seed_);
  }
  std::string describe() const override {
    return "uniform_random(" + set_.to_string() + ", seed " +
           std::to_string(seed_) + ")";
  }

private:
  dataflow::RateSet set_;
  std::uint64_t seed_;
  std::mt19937_64 rng_;
};

class RandomWalkSource final : public QuantumSource {
public:
  RandomWalkSource(dataflow::RateSet set, std::uint64_t seed, std::size_t max_step)
      : set_(std::move(set)), seed_(seed), max_step_(max_step), rng_(seed) {
    VRDF_REQUIRE(max_step_ >= 1, "random walk needs a positive step");
    std::uniform_int_distribution<std::size_t> dist(0, set_.size() - 1);
    position_ = dist(rng_);
  }
  std::int64_t next(std::int64_t) override {
    const auto step_range = static_cast<std::int64_t>(max_step_);
    std::uniform_int_distribution<std::int64_t> dist(-step_range, step_range);
    const std::int64_t moved = static_cast<std::int64_t>(position_) + dist(rng_);
    const std::int64_t clamped = std::max<std::int64_t>(
        0, std::min<std::int64_t>(moved, static_cast<std::int64_t>(set_.size()) - 1));
    position_ = static_cast<std::size_t>(clamped);
    return set_.nth(position_);
  }
  std::unique_ptr<QuantumSource> clone() const override {
    return std::make_unique<RandomWalkSource>(set_, seed_, max_step_);
  }
  std::string describe() const override {
    return "random_walk(" + set_.to_string() + ", seed " +
           std::to_string(seed_) + ")";
  }

private:
  dataflow::RateSet set_;
  std::uint64_t seed_;
  std::size_t max_step_;
  std::mt19937_64 rng_;
  std::size_t position_ = 0;
};

}  // namespace

std::unique_ptr<QuantumSource> constant_source(std::int64_t value) {
  VRDF_REQUIRE(value >= 0, "quanta must be non-negative");
  return std::make_unique<ConstantSource>(value);
}

std::unique_ptr<QuantumSource> scripted_source(std::vector<std::int64_t> prefix,
                                               std::int64_t tail_value) {
  return std::make_unique<ScriptedSource>(std::move(prefix), tail_value);
}

std::unique_ptr<QuantumSource> uniform_random_source(dataflow::RateSet set,
                                                     std::uint64_t seed) {
  return std::make_unique<UniformRandomSource>(std::move(set), seed);
}

std::unique_ptr<QuantumSource> random_walk_source(dataflow::RateSet set,
                                                  std::uint64_t seed,
                                                  std::size_t max_step) {
  return std::make_unique<RandomWalkSource>(std::move(set), seed, max_step);
}

std::unique_ptr<QuantumSource> min_max_alternating_source(
    const dataflow::RateSet& set) {
  return std::make_unique<CyclicSource>(
      std::vector<std::int64_t>{set.min(), set.max()});
}

}  // namespace vrdf::sim
