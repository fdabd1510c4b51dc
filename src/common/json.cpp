#include "common/json.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace uparc::json {

const Value* Value::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) {
    throw std::out_of_range("json: missing key \"" + std::string(key) + "\"");
  }
  return *v;
}

bool Value::as_bool() const {
  if (type != Type::kBool) throw std::runtime_error("json: not a bool");
  return boolean;
}

u64 Value::as_u64() const {
  if (type != Type::kNumber) throw std::runtime_error("json: not a number");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    throw std::runtime_error("json: not a u64: " + text);
  }
  return static_cast<u64>(v);
}

const std::string& Value::as_string() const {
  if (type != Type::kString) throw std::runtime_error("json: not a string");
  return text;
}

namespace {

// Hand-rolled cursor; errors carry the byte offset so a corrupt WAL payload
// is reported as "byte 17: ..." rather than a bare parse failure.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> run() {
    Value root;
    if (Error* e = value(root)) return *e;
    skip_ws();
    if (pos_ != text_.size()) return *fail("trailing characters after document");
    return root;
  }

 private:
  Error* fail(std::string what) {
    err_ = make_error("byte " + std::to_string(pos_) + ": " + std::move(what),
                      ErrorCause::kBadInput);
    return &err_;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Error* literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("expected '" + std::string(word) + "'");
    }
    pos_ += word.size();
    return nullptr;
  }

  Error* string(std::string& out) {
    if (!eat('"')) return fail("expected '\"'");
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return nullptr;
      if (static_cast<unsigned char>(c) < 0x20) return fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          u32 code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<u32>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<u32>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<u32>(h - 'A' + 10);
            else return fail("bad hex digit in \\u escape");
          }
          // The tree's emitters only escape control characters (< 0x20), so
          // a BMP-only UTF-8 encoding is enough; surrogate pairs from
          // foreign documents are passed through as two encoded halves.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  Error* number(Value& out) {
    const std::size_t start = pos_;
    if (eat('-')) {}
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      return fail("expected digits");
    }
    if (eat('.')) {
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    out.type = Type::kNumber;
    out.text.assign(text_.substr(start, pos_ - start));
    return nullptr;
  }

  Error* value(Value& out) {
    if (++depth_ > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of document");
    Error* err = nullptr;
    switch (text_[pos_]) {
      case '{': err = object(out); break;
      case '[': err = array(out); break;
      case '"':
        out.type = Type::kString;
        err = string(out.text);
        break;
      case 't':
        out.type = Type::kBool;
        out.boolean = true;
        err = literal("true");
        break;
      case 'f':
        out.type = Type::kBool;
        out.boolean = false;
        err = literal("false");
        break;
      case 'n':
        out.type = Type::kNull;
        err = literal("null");
        break;
      default: err = number(out); break;
    }
    --depth_;
    return err;
  }

  Error* object(Value& out) {
    out.type = Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (eat('}')) return nullptr;
    while (true) {
      skip_ws();
      std::string key;
      if (Error* e = string(key)) return e;
      skip_ws();
      if (!eat(':')) return fail("expected ':'");
      Value member;
      if (Error* e = value(member)) return e;
      out.members.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) return nullptr;
      return fail("expected ',' or '}'");
    }
  }

  Error* array(Value& out) {
    out.type = Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (eat(']')) return nullptr;
    while (true) {
      Value item;
      if (Error* e = value(item)) return e;
      out.items.push_back(std::move(item));
      skip_ws();
      if (eat(',')) continue;
      if (eat(']')) return nullptr;
      return fail("expected ',' or ']'");
    }
  }

  static constexpr int kMaxDepth = 64;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  Error err_;
};

}  // namespace

Result<Value> parse(std::string_view text) { return Parser(text).run(); }

namespace {

void escape_into(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
}

void write_into(std::string& out, const Value& v) {
  switch (v.type) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += v.boolean ? "true" : "false"; break;
    case Type::kNumber: out += v.text; break;
    case Type::kString:
      out += '"';
      escape_into(out, v.text);
      out += '"';
      break;
    case Type::kArray: {
      out += '[';
      bool first = true;
      for (const Value& item : v.items) {
        if (!first) out += ',';
        first = false;
        write_into(out, item);
      }
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : v.members) {
        if (!first) out += ',';
        first = false;
        out += '"';
        escape_into(out, key);
        out += "\":";
        write_into(out, member);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string to_text(const Value& value) {
  std::string out;
  write_into(out, value);
  return out;
}

}  // namespace uparc::json
