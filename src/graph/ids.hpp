// Strongly typed indices for model entities.
//
// An id is a dense index into its owning model's arrays (VrdfGraph's actors
// and edges, TaskGraph's tasks and buffers).  Each kind of entity has its
// own phantom Tag, declared next to the model that owns it, so an actor id
// cannot be used where a task id is expected even though both are "small
// integers".  invalid() is UINT32_MAX, so the owner's `index() < size()`
// check rejects it along with any other out-of-range id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <ranges>

namespace vrdf::graph {

template <typename Tag>
class Id {
public:
  using underlying_type = std::uint32_t;

  constexpr Id() = default;
  constexpr explicit Id(underlying_type value) : value_(value) {}

  [[nodiscard]] constexpr underlying_type value() const { return value_; }
  [[nodiscard]] constexpr std::size_t index() const { return value_; }
  [[nodiscard]] constexpr bool is_valid() const { return value_ != kInvalid; }

  [[nodiscard]] static constexpr Id invalid() { return Id(); }

  friend constexpr bool operator==(Id, Id) = default;
  friend constexpr auto operator<=>(Id, Id) = default;

private:
  static constexpr underlying_type kInvalid =
      std::numeric_limits<underlying_type>::max();
  underlying_type value_ = kInvalid;
};

/// The ids 0..count-1 of one kind in increasing order, as a range that
/// allocates nothing and refers to nothing.
template <typename IdT>
auto ids_below(std::size_t count) {
  using Index = typename IdT::underlying_type;
  return std::views::iota(Index{0}, static_cast<Index>(count)) |
         std::views::transform([](Index i) { return IdT(i); });
}

template <typename Tag>
std::ostream& operator<<(std::ostream& os, Id<Tag> id) {
  if (!id.is_valid()) {
    return os << "#invalid";
  }
  return os << '#' << id.value();
}

}  // namespace vrdf::graph

template <typename Tag>
struct std::hash<vrdf::graph::Id<Tag>> {
  std::size_t operator()(vrdf::graph::Id<Tag> id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value());
  }
};
