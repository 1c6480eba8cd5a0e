// Per-core tables indexed by flash word (the decode cache, the tier map)
// whose memory follows the code that actually runs, not the 256 KB part.
//
// The storage is an anonymous private mapping: untouched pages read as
// zero from the kernel's shared zero page and commit nothing, so a core
// that executes 8 KB of code pays for the handful of pages holding those
// words. Zero is every table's "empty" encoding. Every write must be
// followed by touch(): clear() re-zeroes only the touched pages, so an
// invalidation costs O(pages written), not O(flash).
//
// A destroyed table's mapping is cleared and kept for the next table of
// the same size: campaigns build one Board per trial, and mapping,
// faulting in and unmapping fresh pages every trial costs more than
// re-zeroing the few pages a trial wrote.
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace mavr::avr {

namespace detail {

/// All-zero mappings released by destroyed tables, shared by all threads.
class SpareMappings {
 public:
  /// Never destroyed: a table may be released during static destruction.
  static SpareMappings& instance() {
    static SpareMappings* const spares = new SpareMappings;
    return *spares;
  }

  /// A spare mapping of exactly `bytes`, or nullptr.
  void* take(std::size_t bytes) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto it = spares_.begin(); it != spares_.end(); ++it) {
      if (it->bytes != bytes) continue;
      void* data = it->data;
      spares_.erase(it);
      return data;
    }
    return nullptr;
  }

  /// Keeps an all-zero mapping; false when the spares are full.
  bool give(void* data, std::size_t bytes) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (spares_.size() >= kMaxSpares) return false;
    spares_.push_back({data, bytes});
    return true;
  }

 private:
  struct Spare {
    void* data;
    std::size_t bytes;
  };
  /// Two tables for each of up to eight cores built and torn down at once.
  static constexpr std::size_t kMaxSpares = 16;

  std::mutex mu_;
  std::vector<Spare> spares_;
};

}  // namespace detail

template <class T>
class LazyTable {
  static_assert(std::is_trivially_copyable_v<T>,
                "entries are zero-filled and copied as bytes");

 public:
  LazyTable() = default;
  explicit LazyTable(std::size_t n) : size_(n) {
    void* p = detail::SpareMappings::instance().take(bytes());
    if (p == nullptr) {
      p = ::mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
    }
    data_ = static_cast<T*>(p);
    page_dirty_.assign((bytes() + kPage - 1) / kPage, 0);
  }
  ~LazyTable() { release(); }

  LazyTable(LazyTable&& other) noexcept { swap(other); }
  LazyTable& operator=(LazyTable&& other) noexcept {
    if (this != &other) {
      release();
      swap(other);
    }
    return *this;
  }
  LazyTable(const LazyTable&) = delete;
  LazyTable& operator=(const LazyTable&) = delete;

  bool empty() const { return size_ == 0; }
  T* data() { return data_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  /// Records that entry `i` was written, so clear() re-zeroes its page.
  void touch(std::size_t i) {
    const std::size_t page = i * sizeof(T) / kPage;
    if (!page_dirty_[page]) mark_dirty(page);
  }

  /// Zeroes every page touched since the last clear.
  void clear() {
    auto* base = reinterpret_cast<unsigned char*>(data_);
    for (const std::size_t page : dirty_) {
      const std::size_t from = page * kPage;
      std::memset(base + from, 0, std::min(kPage, bytes() - from));
      page_dirty_[page] = 0;
    }
    dirty_.clear();
  }

 private:
  static constexpr std::size_t kPage = 4096;

  std::size_t bytes() const { return size_ * sizeof(T); }
  // Out of line: touch() sits on hot miss paths whose callers the
  // compiler should keep inlining.
  [[gnu::noinline]] void mark_dirty(std::size_t page) {
    page_dirty_[page] = 1;
    dirty_.push_back(page);
  }
  void release() {
    if (data_ != nullptr) {
      clear();
      if (!detail::SpareMappings::instance().give(data_, bytes())) {
        ::munmap(data_, bytes());
      }
    }
    data_ = nullptr;
    size_ = 0;
  }
  void swap(LazyTable& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(page_dirty_, other.page_dirty_);
    std::swap(dirty_, other.dirty_);
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::vector<std::uint8_t> page_dirty_;  ///< per page: listed in dirty_
  std::vector<std::size_t> dirty_;        ///< pages written since clear()
};

}  // namespace mavr::avr
