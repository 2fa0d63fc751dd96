//===- support/Error.h - Lightweight recoverable error handling -*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal, exception-free recoverable-error scheme in the spirit of
/// llvm::Error / llvm::Expected. An Error is either success or a message;
/// Expected<T> carries either a value or an Error. Errors must be checked
/// before destruction in asserts builds, which catches silently dropped
/// failures early.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_SUPPORT_ERROR_H
#define CALIBRO_SUPPORT_ERROR_H

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace calibro {

/// Coarse classification of a failure, so callers (tools, the fault-injection
/// harness) can tell a malformed input apart from an internal pipeline fault
/// without parsing the message text.
enum class ErrCat : uint8_t {
  Generic,   ///< Unclassified failure.
  BadFormat, ///< Malformed serialized input (ELF / OAT container).
  SideInfo,  ///< Invalid per-method side information.
  Link,      ///< Link-stage failure (relocations, layout, duplicate ids).
  Runtime,   ///< Simulator / execution failure.
  Service,   ///< Compile-service admission failure (queue full, shut down).
  InvalidOptions, ///< A configuration the pipeline cannot run.
};

/// Returns a stable lower-case name for \p C ("bad-format", ...).
inline const char *errCatName(ErrCat C) {
  switch (C) {
  case ErrCat::Generic:
    return "error";
  case ErrCat::BadFormat:
    return "bad-format";
  case ErrCat::SideInfo:
    return "side-info";
  case ErrCat::Link:
    return "link";
  case ErrCat::Runtime:
    return "runtime";
  case ErrCat::Service:
    return "service";
  case ErrCat::InvalidOptions:
    return "invalid-options";
  }
  return "error";
}

/// A recoverable error: success, or a failure described by a message.
///
/// The object must be checked (tested via operator bool) or moved from before
/// it is destroyed; destruction of an unchecked failure asserts. This mirrors
/// llvm::Error's discipline without the RTTI machinery.
class [[nodiscard]] Error {
public:
  /// Creates a success value.
  static Error success() { return Error(); }

  /// Creates a failure value carrying \p Msg, classified as \p Cat.
  static Error failure(std::string Msg, ErrCat Cat = ErrCat::Generic) {
    Error E;
    E.Failed = true;
    E.Msg = std::move(Msg);
    E.Cat = Cat;
    E.Checked = false;
    return E;
  }

  Error(Error &&Other) noexcept
      : Failed(Other.Failed), Checked(Other.Checked), Cat(Other.Cat),
        Msg(std::move(Other.Msg)) {
    Other.Checked = true;
  }

  Error &operator=(Error &&Other) noexcept {
    assert(Checked && "overwriting an unchecked Error");
    Failed = Other.Failed;
    Checked = Other.Checked;
    Cat = Other.Cat;
    Msg = std::move(Other.Msg);
    Other.Checked = true;
    return *this;
  }

  Error(const Error &) = delete;
  Error &operator=(const Error &) = delete;

  ~Error() { assert(Checked && "destroying an unchecked Error"); }

  /// Tests for failure and marks the error checked. True means failure.
  explicit operator bool() {
    Checked = true;
    return Failed;
  }

  /// Returns the failure message (empty for success).
  const std::string &message() const { return Msg; }

  /// Returns the failure category (Generic for success).
  ErrCat category() const { return Cat; }

private:
  Error() = default;

  bool Failed = false;
  bool Checked = true;
  ErrCat Cat = ErrCat::Generic;
  std::string Msg;
};

/// Creates a failure Error from a message.
inline Error makeError(std::string Msg) {
  return Error::failure(std::move(Msg));
}

/// Creates a classified failure Error.
inline Error makeError(ErrCat Cat, std::string Msg) {
  return Error::failure(std::move(Msg), Cat);
}

/// Explicitly discards an error that is known to be benign.
inline void consumeError(Error E) { (void)bool(E); }

/// Either a T or an Error. Test with operator bool (true == has a value),
/// then access the value with operator* / operator-> or the error with
/// takeError().
template <typename T> class [[nodiscard]] Expected {
public:
  /// Constructs a success value.
  Expected(T Value) : Value(std::move(Value)), Err(Error::success()) {}

  /// Constructs a failure value.
  Expected(Error E) : Err(std::move(E)) {
    assert(Err.message().size() && "Expected constructed from success Error");
  }

  Expected(Expected &&) noexcept = default;

  /// True when a value is present.
  explicit operator bool() {
    if (!Value.has_value())
      return false;
    consumeErrorFlag();
    return true;
  }

  T &operator*() {
    assert(Value.has_value() && "dereferencing an errored Expected");
    return *Value;
  }
  const T &operator*() const {
    assert(Value.has_value() && "dereferencing an errored Expected");
    return *Value;
  }
  T *operator->() { return &operator*(); }
  const T *operator->() const { return &operator*(); }

  /// Extracts the error. Returns success() if a value is present.
  Error takeError() {
    if (Value.has_value())
      return Error::success();
    return std::move(Err);
  }

  /// Returns the failure message (empty when a value is present).
  const std::string &message() const { return Err.message(); }

  /// Returns the failure category (Generic when a value is present).
  ErrCat category() const { return Err.category(); }

private:
  void consumeErrorFlag() { (void)bool(Err); }

  std::optional<T> Value;
  Error Err;
};

} // namespace calibro

#endif // CALIBRO_SUPPORT_ERROR_H
