#ifndef XPV_PATTERN_XPATH_PARSER_H_
#define XPV_PATTERN_XPATH_PARSER_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "pattern/pattern.h"
#include "util/result.h"

namespace xpv {

/// A structured XPath parse failure: what went wrong and where. `offset`
/// is the byte offset into the input at which the parser gave up (for
/// `a[b//]` the offset is 5, the ']' where a step was expected).
struct XPathParseError {
  size_t offset = 0;
  std::string message;  ///< e.g. "expected step".

  /// One-line summary: `position 5: expected step`.
  std::string Summary() const;

  /// Multi-line rendering with a caret marking `offset` in `input`:
  ///
  ///   position 5: expected step
  ///     a[b//]
  ///          ^
  ///
  /// The caret column is counted in display columns (code points) over
  /// the offending line, so multi-byte UTF-8 labels before the error do
  /// not misplace it; `offset` itself stays byte-based.
  std::string Format(std::string_view input) const;
};

/// Parses an expression of the XPath fragment XP^{//,[],*} into a `Pattern`.
///
/// Grammar (the paper's `q ::= q/q | q//q | q[q] | l | *`, concretely):
///
///   pattern   ::= ['/' | '//'] step ( ('/' | '//') step )*
///   step      ::= (NAME | '*') predicate*
///   predicate ::= '[' rel ']'
///   rel       ::= ['//'] step ( ('/' | '//') step )*
///
/// Semantics:
///   * The first step of the top-level path is the pattern's *root node*
///     (patterns are anchored at the document root; a leading '/' is
///     accepted and ignored).
///   * A leading '//' creates an implicit root labeled '*' with a
///     descendant edge to the first explicit step, i.e. `//a` is `*//a`
///     anchored at the document root.
///   * Inside a predicate, the first step attaches to the current node by a
///     child edge, or by a descendant edge if the predicate starts with
///     '//' (e.g. `a[//b]` has a descendant edge from `a` to `b`).
///   * The output node is the last step of the top-level path.
///
/// NAME tokens are [A-Za-z_][A-Za-z0-9_.-]* extended with non-ASCII UTF-8
/// bytes (labels like `café` are legal and interned as byte strings);
/// names starting with '#' are rejected (reserved for internal labels).
///
/// Predicates nest at most 256 levels deep: the `[` that would open one
/// more is a parse error, which keeps the parser's stack bounded.
///
/// On failure the error carries the byte offset of the first offending
/// character; the `xpv::Service` layer surfaces it (with caret context)
/// through `ServiceError`.
[[nodiscard]] Result<Pattern, XPathParseError> ParseXPathDetailed(
    std::string_view input);

/// String-error convenience wrapper around `ParseXPathDetailed`: the error
/// is `XPathParseError::Format(input)` (one-line summary + caret context).
[[nodiscard]] Result<Pattern> ParseXPath(std::string_view input);

/// Convenience for tests and examples: parses `input` and aborts on error.
Pattern MustParseXPath(std::string_view input);

}  // namespace xpv

#endif  // XPV_PATTERN_XPATH_PARSER_H_
