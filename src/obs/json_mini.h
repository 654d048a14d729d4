//===- obs/json_mini.h - Internal JSON writer/reader helpers ---*- C++ -*-===//
//
// Part of the EnerJ reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flight recorder's private JSON toolkit, shared by journal.cpp and
/// ledger.cpp. The writer half mirrors the harness report conventions —
/// %.17g doubles (round-trip exactly through strtod), PRIu64 integers,
/// backslash/quote escaping — so journals compare bitwise the same way
/// the eval JSON does. The reader half is a small recursive-descent
/// parser that keeps every number's *raw text*: a 64-bit seed parsed
/// through a double would silently lose low bits, so asU64()/asDouble()
/// convert from the original characters on demand.
///
/// Internal header: not installed, no stability promises.
///
//===----------------------------------------------------------------------===//

#ifndef ENERJ_OBS_JSON_MINI_H
#define ENERJ_OBS_JSON_MINI_H

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace enerj {
namespace obs {
namespace json {

// --- Writer -------------------------------------------------------------

/// Appends \p S as JSON string content: quotes and backslashes are
/// backslash-escaped, bytes below 0x20 become \u00XX.
inline void appendEscaped(std::string &Out, const std::string &S) {
  static const char Hex[] = "0123456789abcdef";
  for (char C : S) {
    unsigned char Byte = static_cast<unsigned char>(C);
    if (Byte < 0x20) {
      Out += "\\u00";
      Out.push_back(Hex[Byte >> 4]);
      Out.push_back(Hex[Byte & 0xF]);
      continue;
    }
    if (C == '"' || C == '\\')
      Out.push_back('\\');
    Out.push_back(C);
  }
}

inline void appendDouble(std::string &Out, double Value) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.17g", Value);
  Out += Buffer;
}

inline void appendU64(std::string &Out, uint64_t Value) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "%" PRIu64, Value);
  Out += Buffer;
}

inline void appendI64(std::string &Out, int64_t Value) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "%" PRId64, Value);
  Out += Buffer;
}

inline void appendBool(std::string &Out, bool Value) {
  Out += Value ? "true" : "false";
}

/// "0x" + 16 lowercase hex digits — the ledger's hash spelling.
inline void appendHex64(std::string &Out, uint64_t Value) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "0x%016" PRIx64, Value);
  Out += Buffer;
}

// --- FNV-1a 64 ----------------------------------------------------------

/// The 64-bit FNV-1a of \p Bytes: the ledger's config-hash / grid-digest
/// function. Stable, dependency-free, and good enough for change
/// detection (these are fingerprints, not security hashes).
inline uint64_t fnv1a(const std::string &Bytes) {
  uint64_t Hash = 0xcbf29ce484222325ull;
  for (unsigned char C : Bytes) {
    Hash ^= C;
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

// --- Reader -------------------------------------------------------------

/// One parsed JSON value. Numbers keep their raw source text so integer
/// conversions are exact for the full uint64 range.
struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind K = Kind::Null;
  bool B = false;
  std::string Text; ///< String contents, or a number's raw text.
  std::vector<Value> Items;
  std::vector<std::pair<std::string, Value>> Members;

  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isString() const { return K == Kind::String; }
  bool isNumber() const { return K == Kind::Number; }
  bool isBool() const { return K == Kind::Bool; }

  /// Member lookup; null when absent or not an object.
  const Value *find(const std::string &Key) const {
    if (K != Kind::Object)
      return nullptr;
    for (const auto &Member : Members)
      if (Member.first == Key)
        return &Member.second;
    return nullptr;
  }

  double asDouble() const { return std::strtod(Text.c_str(), nullptr); }
  uint64_t asU64() const {
    return std::strtoull(Text.c_str(), nullptr, 10);
  }
  int64_t asI64() const { return std::strtoll(Text.c_str(), nullptr, 10); }
};

namespace detail {

struct Parser {
  const std::string &Text;
  size_t Pos = 0;
  std::string Error;

  explicit Parser(const std::string &Text) : Text(Text) {}

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool fail(const std::string &Message) {
    if (Error.empty())
      Error = Message + " at offset " + std::to_string(Pos);
    return false;
  }

  bool parseString(std::string &Out) {
    if (Pos >= Text.size() || Text[Pos] != '"')
      return fail("expected string");
    ++Pos;
    while (Pos < Text.size() && Text[Pos] != '"') {
      char C = Text[Pos++];
      if (C != '\\') {
        Out.push_back(C);
        continue;
      }
      if (Pos >= Text.size())
        return fail("dangling escape");
      char E = Text[Pos++];
      switch (E) {
      case '"': Out.push_back('"'); break;
      case '\\': Out.push_back('\\'); break;
      case '/': Out.push_back('/'); break;
      case 'b': Out.push_back('\b'); break;
      case 'f': Out.push_back('\f'); break;
      case 'n': Out.push_back('\n'); break;
      case 'r': Out.push_back('\r'); break;
      case 't': Out.push_back('\t'); break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad \\u escape");
        }
        // UTF-8 encode the BMP code point (surrogate pairs unsupported;
        // nothing we emit uses them).
        if (Code < 0x80) {
          Out.push_back(static_cast<char>(Code));
        } else if (Code < 0x800) {
          Out.push_back(static_cast<char>(0xC0 | (Code >> 6)));
          Out.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
        } else {
          Out.push_back(static_cast<char>(0xE0 | (Code >> 12)));
          Out.push_back(static_cast<char>(0x80 | ((Code >> 6) & 0x3F)));
          Out.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
        }
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    if (Pos >= Text.size())
      return fail("unterminated string");
    ++Pos; // closing quote
    return true;
  }

  bool parseValue(Value &Out) {
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '"') {
      Out.K = Value::Kind::String;
      return parseString(Out.Text);
    }
    if (C == '{') {
      ++Pos;
      Out.K = Value::Kind::Object;
      skipWs();
      if (Pos < Text.size() && Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      for (;;) {
        skipWs();
        std::string Key;
        if (!parseString(Key))
          return false;
        skipWs();
        if (Pos >= Text.size() || Text[Pos] != ':')
          return fail("expected ':'");
        ++Pos;
        Value Member;
        if (!parseValue(Member))
          return false;
        Out.Members.emplace_back(std::move(Key), std::move(Member));
        skipWs();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < Text.size() && Text[Pos] == '}') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (C == '[') {
      ++Pos;
      Out.K = Value::Kind::Array;
      skipWs();
      if (Pos < Text.size() && Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      for (;;) {
        Value Item;
        if (!parseValue(Item))
          return false;
        Out.Items.push_back(std::move(Item));
        skipWs();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < Text.size() && Text[Pos] == ']') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (C == 't' && Text.compare(Pos, 4, "true") == 0) {
      Pos += 4;
      Out.K = Value::Kind::Bool;
      Out.B = true;
      return true;
    }
    if (C == 'f' && Text.compare(Pos, 5, "false") == 0) {
      Pos += 5;
      Out.K = Value::Kind::Bool;
      Out.B = false;
      return true;
    }
    if (C == 'n' && Text.compare(Pos, 4, "null") == 0) {
      Pos += 4;
      Out.K = Value::Kind::Null;
      return true;
    }
    if (C == '-' || (C >= '0' && C <= '9')) {
      size_t Start = Pos;
      if (Text[Pos] == '-')
        ++Pos;
      while (Pos < Text.size() &&
             ((Text[Pos] >= '0' && Text[Pos] <= '9') || Text[Pos] == '.' ||
              Text[Pos] == 'e' || Text[Pos] == 'E' || Text[Pos] == '+' ||
              Text[Pos] == '-'))
        ++Pos;
      Out.K = Value::Kind::Number;
      Out.Text = Text.substr(Start, Pos - Start);
      return true;
    }
    return fail("unexpected character");
  }
};

} // namespace detail

/// Parses \p Text into \p Out; on failure returns false and (when
/// non-null) describes the problem in \p Error. Trailing non-whitespace
/// after the document is an error.
inline bool parse(const std::string &Text, Value *Out, std::string *Error) {
  detail::Parser P(Text);
  Value V;
  if (!P.parseValue(V)) {
    if (Error)
      *Error = P.Error;
    return false;
  }
  P.skipWs();
  if (P.Pos != Text.size()) {
    if (Error)
      *Error = "trailing characters after JSON document";
    return false;
  }
  *Out = std::move(V);
  return true;
}

} // namespace json
} // namespace obs
} // namespace enerj

#endif // ENERJ_OBS_JSON_MINI_H
