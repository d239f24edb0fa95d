// Strongly typed indices for model entities.
//
// An id is a dense index into its owning model's arrays (VrdfGraph's actors
// and edges, TaskGraph's tasks and buffers).  Each kind of entity has its
// own phantom Tag, declared next to the model that owns it, so an actor id
// cannot be used where a task id is expected even though both are "small
// integers".  invalid() is UINT32_MAX, so the owner's `index() < size()`
// check rejects it along with any other out-of-range id.  NameIndex finds
// the id of a named actor or task by binary search over the ids themselves,
// so an owner pays 4 bytes per entity for lookup by name.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <ostream>
#include <ranges>
#include <string_view>
#include <vector>

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

/// The ids of one kind sorted by name, for lookup by binary search: 4
/// bytes per id and no copy of a name.  The owner keeps the names; every
/// call passes `name_of`, which maps a filed id to its name.
template <typename IdT>
class NameIndex {
public:
  template <typename NameOf>
  [[nodiscard]] std::optional<IdT> find(std::string_view name,
                                        const NameOf& name_of) const {
    const auto it = lower_bound(name, name_of);
    if (it == sorted_.end() || name_of(IdT(*it)) != name) {
      return std::nullopt;
    }
    return IdT(*it);
  }

  /// Files `id` under `name`; returns false, filing nothing, when the name
  /// is taken.
  template <typename NameOf>
  [[nodiscard]] bool insert(IdT id, std::string_view name,
                            const NameOf& name_of) {
    const auto it = lower_bound(name, name_of);
    if (it != sorted_.end() && name_of(IdT(*it)) == name) {
      return false;
    }
    sorted_.insert(it, id.value());
    return true;
  }

private:
  using Index = typename IdT::underlying_type;

  template <typename NameOf>
  [[nodiscard]] auto lower_bound(std::string_view name,
                                 const NameOf& name_of) const {
    return std::lower_bound(
        sorted_.begin(), sorted_.end(), name,
        [&name_of](Index id, std::string_view key) {
          return std::string_view(name_of(IdT(id))) < key;
        });
  }

  std::vector<Index> sorted_;
};

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
