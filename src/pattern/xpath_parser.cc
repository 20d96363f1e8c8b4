#include "pattern/xpath_parser.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

namespace xpv {

std::string XPathParseError::Summary() const {
  return "position " + std::to_string(offset) + ": " + message;
}

std::string XPathParseError::Format(std::string_view input) const {
  std::string out = Summary();
  // Slice the context to the line containing `offset` — embedded newlines
  // are legal whitespace in the grammar and would otherwise break the
  // caret alignment.
  const size_t clamped = offset < input.size() ? offset : input.size();
  size_t line_begin = 0;
  if (clamped > 0) {
    const size_t nl = input.rfind('\n', clamped - 1);
    if (nl != std::string_view::npos) line_begin = nl + 1;
  }
  size_t line_end = input.find('\n', clamped);
  if (line_end == std::string_view::npos) line_end = input.size();
  const std::string_view line = input.substr(line_begin, line_end - line_begin);
  out += "\n  ";
  out.append(line.data(), line.size());
  out += "\n  ";
  // The caret column is counted in display columns, not bytes: labels may
  // be multi-byte UTF-8 (the struct's `offset` stays byte-based), and a
  // byte count would push the caret right of the offending character.
  // Code points are counted by skipping UTF-8 continuation bytes.
  size_t columns = 0;
  for (size_t i = line_begin; i < clamped; ++i) {
    if ((static_cast<unsigned char>(input[i]) & 0xC0) != 0x80) ++columns;
  }
  out.append(columns, ' ');
  out += '^';
  return out;
}

namespace {

/// Deepest predicate nesting the parser accepts. Each `[` level recurses
/// through `ParsePredicates` and `ParseStep`, so the bound keeps the stack
/// bounded on adversarial input. It sits far above anything the workload
/// generator draws and the tests and examples write; `/`-step chains do
/// not nest and stay unbounded.
constexpr int kMaxPredicateDepth = 256;

/// Recursive-descent parser over the grammar in the header. Every failure
/// site records the byte offset of the offending character.
class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  Result<Pattern, XPathParseError> Parse() {
    SkipSpace();
    if (AtEnd()) return Err("empty expression");

    // Leading axis.
    bool leading_descendant = false;
    if (PeekIs("//")) {
      leading_descendant = true;
      pos_ += 2;
    } else if (Peek() == '/') {
      ++pos_;
    }

    Pattern p = leading_descendant ? Pattern(LabelStore::kWildcard)
                                   : Pattern(kNoLabelYet());
    // For the non-descendant case we create the root from the first step's
    // label; we used a placeholder above, so parse the first step now.
    NodeId current;
    if (leading_descendant) {
      Result<NodeId, XPathParseError> first =
          ParseStep(&p, p.root(), EdgeType::kDescendant);
      if (!first.ok()) return Fail(first.error());
      current = first.value();
    } else {
      Result<LabelId, XPathParseError> label = ParseStepLabel();
      if (!label.ok()) return Fail(label.error());
      p.set_label(p.root(), label.value());
      current = p.root();
      if (auto err = ParsePredicates(&p, current); err.has_value()) {
        return Fail(*err);
      }
    }

    // Remaining steps.
    while (true) {
      SkipSpace();
      if (AtEnd()) break;
      EdgeType edge;
      if (PeekIs("//")) {
        edge = EdgeType::kDescendant;
        pos_ += 2;
      } else if (Peek() == '/') {
        edge = EdgeType::kChild;
        ++pos_;
      } else {
        return Err(std::string("unexpected character '") + Peek() + "'");
      }
      Result<NodeId, XPathParseError> next = ParseStep(&p, current, edge);
      if (!next.ok()) return Fail(next.error());
      current = next.value();
    }

    p.set_output(current);
    return p;
  }

 private:
  static LabelId kNoLabelYet() { return LabelStore::kWildcard; }

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool PeekIs(std::string_view s) const {
    return input_.compare(pos_, s.size(), s) == 0;
  }
  void SkipSpace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }

  /// An error at the current position.
  XPathParseError Here(std::string message) const {
    return XPathParseError{pos_, std::move(message)};
  }
  Result<Pattern, XPathParseError> Err(std::string message) const {
    return Fail(Here(std::move(message)));
  }
  static Result<Pattern, XPathParseError> Fail(XPathParseError error) {
    return Result<Pattern, XPathParseError>::Error(std::move(error));
  }

  Result<LabelId, XPathParseError> ParseStepLabel() {
    SkipSpace();
    if (AtEnd()) {
      return Result<LabelId, XPathParseError>::Error(Here("expected step"));
    }
    if (Peek() == '*') {
      ++pos_;
      return LabelStore::kWildcard;
    }
    // Bytes >= 0x80 are UTF-8 lead/continuation bytes of non-ASCII
    // labels, accepted verbatim (labels are interned as byte strings).
    const unsigned char first = static_cast<unsigned char>(Peek());
    if (!std::isalpha(first) && first != '_' && first < 0x80) {
      return Result<LabelId, XPathParseError>::Error(Here("expected step"));
    }
    std::string name;
    while (!AtEnd()) {
      const char c = Peek();
      const unsigned char uc = static_cast<unsigned char>(c);
      if (std::isalnum(uc) || uc >= 0x80 || c == '_' || c == '.' ||
          c == '-') {
        name.push_back(c);
        ++pos_;
      } else {
        break;
      }
    }
    return L(name);
  }

  /// Parses `step` and attaches it under `parent` with edge `edge`.
  /// Returns the new node's id.
  Result<NodeId, XPathParseError> ParseStep(Pattern* p, NodeId parent,
                                            EdgeType edge) {
    Result<LabelId, XPathParseError> label = ParseStepLabel();
    if (!label.ok()) {
      return Result<NodeId, XPathParseError>::Error(label.error());
    }
    NodeId node = p->AddChild(parent, label.value(), edge);
    if (auto err = ParsePredicates(p, node); err.has_value()) {
      return Result<NodeId, XPathParseError>::Error(*err);
    }
    return node;
  }

  /// Parses zero or more `[rel]` predicates attached to `node`. Returns an
  /// error, or nullopt on success.
  std::optional<XPathParseError> ParsePredicates(Pattern* p, NodeId node) {
    while (true) {
      SkipSpace();
      if (AtEnd() || Peek() != '[') return std::nullopt;
      if (predicate_depth_ == kMaxPredicateDepth) {
        return Here("predicates nested deeper than " +
                    std::to_string(kMaxPredicateDepth));
      }
      ++pos_;  // '['
      ++predicate_depth_;
      SkipSpace();
      EdgeType first_edge = EdgeType::kChild;
      if (PeekIs("//")) {
        first_edge = EdgeType::kDescendant;
        pos_ += 2;
      }
      Result<NodeId, XPathParseError> first = ParseStep(p, node, first_edge);
      if (!first.ok()) return first.error();
      NodeId current = first.value();
      while (true) {
        SkipSpace();
        if (AtEnd()) return Here("unterminated predicate: expected ']'");
        if (Peek() == ']') {
          ++pos_;
          --predicate_depth_;
          break;
        }
        EdgeType edge;
        if (PeekIs("//")) {
          edge = EdgeType::kDescendant;
          pos_ += 2;
        } else if (Peek() == '/') {
          edge = EdgeType::kChild;
          ++pos_;
        } else {
          return Here(std::string("unexpected character in predicate '") +
                      Peek() + "'");
        }
        Result<NodeId, XPathParseError> next = ParseStep(p, current, edge);
        if (!next.ok()) return next.error();
        current = next.value();
      }
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
  int predicate_depth_ = 0;  // Open `[` levels at `pos_`.
};

}  // namespace

Result<Pattern, XPathParseError> ParseXPathDetailed(std::string_view input) {
  return Parser(input).Parse();
}

Result<Pattern> ParseXPath(std::string_view input) {
  Result<Pattern, XPathParseError> result = ParseXPathDetailed(input);
  if (!result.ok()) {
    return Result<Pattern>::Error("XPath parse error: " +
                                  result.error().Format(input));
  }
  return result.take();
}

Pattern MustParseXPath(std::string_view input) {
  Result<Pattern> result = ParseXPath(input);
  if (!result.ok()) {
    std::fprintf(stderr, "MustParseXPath(\"%.*s\"): %s\n",
                 static_cast<int>(input.size()), input.data(),
                 result.error().c_str());
    std::abort();
  }
  return result.take();
}

}  // namespace xpv
