#include "lint_core.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <functional>
#include <sstream>

namespace scwc::lint {

namespace {

bool is_ident_char(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when `token` occurs in `line` as a whole identifier.
bool has_token(std::string_view line, std::string_view token) {
  std::size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(line[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= line.size() || !is_ident_char(line[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

/// First position of `token` as a whole identifier, npos when absent.
std::size_t find_token(std::string_view line, std::string_view token,
                       std::size_t from = 0) {
  std::size_t pos = from;
  while ((pos = line.find(token, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(line[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= line.size() || !is_ident_char(line[end]);
    if (left_ok && right_ok) return pos;
    pos += 1;
  }
  return std::string_view::npos;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// True when `arg` is a bare floating-point literal (possibly signed):
/// 1.5, .5, 5., 1e-3, 2.5f, 1E+6 — but not 2u, 107, x, f(1.0).
bool is_float_literal(std::string_view arg) {
  arg = trim(arg);
  if (arg.empty()) return false;
  if (arg.front() == '+' || arg.front() == '-') arg.remove_prefix(1);
  bool saw_digit = false;
  bool saw_dot = false;
  bool saw_exp = false;
  std::size_t i = 0;
  for (; i < arg.size(); ++i) {
    const char c = arg[i];
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      saw_digit = true;
    } else if (c == '\'' && saw_digit) {
      continue;  // digit separator
    } else if (c == '.' && !saw_dot && !saw_exp) {
      saw_dot = true;
    } else if ((c == 'e' || c == 'E') && saw_digit && !saw_exp) {
      saw_exp = true;
      if (i + 1 < arg.size() && (arg[i + 1] == '+' || arg[i + 1] == '-')) ++i;
    } else {
      break;
    }
  }
  if (!saw_digit || (!saw_dot && !saw_exp)) return false;
  // Allow a float suffix; anything else means it's a larger expression.
  const std::string_view rest = arg.substr(i);
  return rest.empty() || rest == "f" || rest == "F" || rest == "l" ||
         rest == "L";
}

/// Splits the contents of a balanced macro argument list at top-level
/// commas. `text` starts just after the opening '('. Returns false when
/// the parens never balance (macro spans something we can't parse).
bool split_macro_args(std::string_view text, std::vector<std::string_view>* out,
                      std::size_t* consumed) {
  int depth = 1;
  std::size_t arg_start = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '(' || c == '[' || c == '{') {
      ++depth;
    } else if (c == ')' || c == ']' || c == '}') {
      --depth;
      if (depth == 0) {
        out->push_back(text.substr(arg_start, i - arg_start));
        *consumed = i + 1;
        return true;
      }
    } else if (c == ',' && depth == 1) {
      out->push_back(text.substr(arg_start, i - arg_start));
      arg_start = i + 1;
    }
  }
  return false;
}

/// True when `text` contains a binary minus — a subtraction like
/// `now - start` — as opposed to a unary minus (`-1.0`), a float exponent
/// (`1e-3`) or an arrow (`p->x`).
bool has_binary_minus(std::string_view text) {
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '-') continue;
    if (i + 1 < text.size() && (text[i + 1] == '>' || text[i + 1] == '-')) {
      ++i;  // arrow / decrement
      continue;
    }
    // Previous non-space character decides unary vs binary.
    std::size_t p = i;
    while (p > 0 && std::isspace(static_cast<unsigned char>(text[p - 1]))) {
      --p;
    }
    if (p == 0) continue;
    const char prev = text[p - 1];
    if (!(is_ident_char(prev) || prev == ')' || prev == ']')) continue;
    // Float exponent: digit/dot then e/E then '-'.
    if ((prev == 'e' || prev == 'E') && p >= 2) {
      const char before = text[p - 2];
      if (std::isdigit(static_cast<unsigned char>(before)) != 0 ||
          before == '.') {
        continue;
      }
    }
    return true;
  }
  return false;
}

/// Sink the declaration-aware checks report through; bound to lint_source's
/// suppression-respecting `report` lambda.
using Reporter =
    std::function<void(std::size_t, std::string_view, std::string)>;

/// Index of the bracket matching the opener at `open`, npos when the text
/// never balances. Angle mode treats ';'/'{' as proof the '<' was a
/// comparison operator rather than a template argument list.
std::size_t match_close(std::string_view text, std::size_t open, char open_c,
                        char close_c) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    const char c = text[i];
    if (c == open_c) {
      ++depth;
    } else if (c == close_c) {
      if (--depth == 0) return i;
    } else if (open_c == '<' && (c == ';' || c == '{')) {
      return std::string_view::npos;
    }
  }
  return std::string_view::npos;
}

/// 0-based line number of byte `pos`.
std::size_t line_of(std::string_view text, std::size_t pos) {
  return static_cast<std::size_t>(
      std::count(text.begin(),
                 text.begin() + static_cast<std::ptrdiff_t>(
                                    std::min(pos, text.size())),
                 '\n'));
}

/// Every identifier-shaped token of `s`, in order.
std::vector<std::string_view> ident_tokens(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    if (is_ident_char(s[i])) {
      const std::size_t start = i;
      while (i < s.size() && is_ident_char(s[i])) ++i;
      out.push_back(s.substr(start, i - start));
    } else {
      ++i;
    }
  }
  return out;
}

/// Erases balanced <...> regions so `std::map<K, V> x` parses as
/// `std::map x` (template commas/parens must not confuse the field parser).
std::string strip_template_args(std::string s) {
  std::size_t lt;
  while ((lt = s.find('<')) != std::string::npos) {
    const std::size_t gt = match_close(s, lt, '<', '>');
    if (gt == std::string::npos) break;
    s.erase(lt, gt - lt + 1);
  }
  return s;
}

/// One member-declaration statement of a class body.
struct MemberStmt {
  std::string text;        ///< nested brace blocks collapsed to "{}"
  std::size_t line_index;  ///< 0-based line of the terminating ';'
};

/// Splits a class body (the text between its outer braces) into member
/// statements. A brace block not followed by ';' is a function body — the
/// statement collecting it is discarded. Blocks that do end in ';' (member
/// initialisers, nested class bodies) collapse to "{}" so fields read as
/// one flat declaration. Access-specifier labels reset the statement.
std::vector<MemberStmt> split_member_statements(std::string_view body,
                                                std::size_t first_line) {
  std::vector<MemberStmt> out;
  std::string current;
  std::size_t line = first_line;
  int paren = 0;
  for (std::size_t i = 0; i < body.size(); ++i) {
    const char c = body[i];
    if (c == '\n') {
      ++line;
      current += ' ';
      continue;
    }
    if (c == '(') ++paren;
    if (c == ')') --paren;
    if (c == '{') {
      int depth = 0;
      std::size_t j = i;
      for (; j < body.size(); ++j) {
        if (body[j] == '\n') ++line;
        if (body[j] == '{') ++depth;
        if (body[j] == '}' && --depth == 0) break;
      }
      std::size_t k = j + 1;
      while (k < body.size() &&
             std::isspace(static_cast<unsigned char>(body[k]))) {
        ++k;
      }
      if (k < body.size() && body[k] == ';') {
        current += "{}";
      } else {
        current.clear();  // function definition — not a field
      }
      i = j;
      continue;
    }
    if (c == ';' && paren == 0) {
      const std::string_view t = trim(current);
      if (!t.empty()) out.push_back({std::string(t), line});
      current.clear();
      continue;
    }
    if (c == ':') {
      if (i + 1 < body.size() && body[i + 1] == ':') {
        current += "::";
        ++i;
        continue;
      }
      const std::string_view t = trim(current);
      if (t == "public" || t == "protected" || t == "private") {
        current.clear();
        continue;
      }
      current += c;  // bit-field width etc.
      continue;
    }
    current += c;
  }
  return out;
}

/// What the guarded-field-coverage rule learned about one member statement.
struct FieldInfo {
  bool is_field = false;  ///< a data member (not a method/alias/keyword)
  bool guarded = false;   ///< carried SCWC_GUARDED_BY / SCWC_PT_GUARDED_BY
  bool exempt = false;    ///< const / atomic / reference / *Handle / sync
  bool is_mutex = false;  ///< the member IS a scwc::Mutex (marks ownership)
  std::string name;
};

FieldInfo parse_member_field(std::string_view stmt) {
  FieldInfo info;
  std::string s(stmt);
  for (const std::string_view macro :
       {"SCWC_GUARDED_BY", "SCWC_PT_GUARDED_BY"}) {
    const std::size_t pos = find_token(s, macro);
    if (pos == std::string_view::npos) continue;
    const std::size_t open = s.find('(', pos + macro.size());
    if (open == std::string::npos) continue;
    const std::size_t close = match_close(s, open, '(', ')');
    if (close == std::string::npos) continue;
    s.erase(pos, close - pos + 1);
    info.guarded = true;
  }
  // Initialisers carry expressions, not declaration structure — cut them.
  if (const std::size_t eq = s.find('='); eq != std::string::npos) {
    s.erase(eq);
  }
  if (const std::size_t brace = s.find('{'); brace != std::string::npos) {
    s.erase(brace);
  }
  if (const std::size_t bracket = s.find('['); bracket != std::string::npos) {
    s.erase(bracket);
  }
  const std::string_view trimmed = trim(s);
  if (trimmed.empty()) return info;
  const std::vector<std::string_view> head = ident_tokens(trimmed);
  if (head.empty()) return info;
  for (const std::string_view kw :
       {"using", "typedef", "friend", "template", "operator", "explicit",
        "virtual", "static", "constexpr", "enum", "struct", "class",
        "public", "protected", "private", "requires"}) {
    if (head.front() == kw) return info;
  }
  const std::string flat = strip_template_args(std::string(trimmed));
  if (flat.find('(') != std::string::npos) return info;  // method decl
  const std::vector<std::string_view> tokens = ident_tokens(flat);
  if (tokens.size() < 2) return info;  // need at least type + name
  info.is_field = true;
  info.name = std::string(tokens.back());
  const bool is_ref = flat.find('&') != std::string::npos;
  for (const std::string_view tok : tokens) {
    const bool mutex_type = tok == "Mutex" || tok == "TimedMutex";
    if (mutex_type && !is_ref && flat.find('*') == std::string::npos) {
      info.is_mutex = true;
    }
    if (tok == "const" || tok == "constexpr" || mutex_type ||
        tok == "CondVar" || tok.starts_with("atomic") ||
        tok.ends_with("Handle")) {
      info.exempt = true;
    }
  }
  if (is_ref) info.exempt = true;  // references cannot rebind
  return info;
}

/// guarded-field-coverage: every class that owns a scwc::Mutex must
/// annotate each mutable field with SCWC_GUARDED_BY (or justify an allow).
void check_guarded_field_coverage(std::string_view text,
                                  const Reporter& report) {
  std::size_t search = 0;
  while (true) {
    const std::size_t c1 = find_token(text, "class", search);
    const std::size_t c2 = find_token(text, "struct", search);
    const std::size_t kw = std::min(c1, c2);
    if (kw == std::string_view::npos) break;
    const std::size_t kw_len = kw == c1 ? 5 : 6;
    search = kw + kw_len;
    {  // `enum class` / `enum struct` — scoped enums own no fields
      std::size_t p = kw;
      while (p > 0 && std::isspace(static_cast<unsigned char>(text[p - 1]))) {
        --p;
      }
      std::size_t e = p;
      while (e > 0 && is_ident_char(text[e - 1])) --e;
      if (text.substr(e, p - e) == "enum") continue;
    }
    // Walk to the body '{'. Balanced parens on the way are attribute
    // macros (SCWC_CAPABILITY(...)); anything else means this keyword was
    // not a class definition (forward decl, template parameter, ...).
    std::size_t j = kw + kw_len;
    std::size_t body_open = std::string_view::npos;
    std::string head;
    while (j < text.size()) {
      const char c = text[j];
      if (c == '{') {
        body_open = j;
        break;
      }
      if (c == ';' || c == '>' || c == ',' || c == ')' || c == '=') break;
      if (c == '(') {
        const std::size_t close = match_close(text, j, '(', ')');
        if (close == std::string_view::npos) break;
        j = close + 1;
        continue;
      }
      head += c;
      ++j;
    }
    if (body_open == std::string_view::npos) continue;
    const std::size_t body_close = match_close(text, body_open, '{', '}');
    if (body_close == std::string_view::npos) continue;
    // Class name: last identifier before the base-class list / body,
    // ignoring the `final` marker.
    std::string_view head_v = head;
    if (const std::size_t colon = head_v.find(':');
        colon != std::string_view::npos) {
      head_v = head_v.substr(0, colon);
    }
    std::vector<std::string_view> name_toks = ident_tokens(head_v);
    while (!name_toks.empty() && name_toks.back() == "final") {
      name_toks.pop_back();
    }
    const std::string cls =
        name_toks.empty() ? "(anonymous)" : std::string(name_toks.back());

    const std::string_view body =
        text.substr(body_open + 1, body_close - body_open - 1);
    const std::vector<MemberStmt> stmts =
        split_member_statements(body, line_of(text, body_open));
    bool owns_mutex = false;
    for (const MemberStmt& m : stmts) {
      if (parse_member_field(m.text).is_mutex) {
        owns_mutex = true;
        break;
      }
    }
    if (!owns_mutex) continue;
    for (const MemberStmt& m : stmts) {
      const FieldInfo info = parse_member_field(m.text);
      if (!info.is_field || info.exempt || info.guarded) continue;
      report(m.line_index, "guarded-field-coverage",
             "field '" + info.name + "' of Mutex-owning class '" + cls +
                 "' has no SCWC_GUARDED_BY — annotate it, or justify an "
                 "exemption with // scwc-lint: allow(guarded-field-coverage)");
    }
  }
}

/// One live lock guard while scanning for blocking calls.
struct ActiveGuard {
  std::string var;                   ///< guard variable name
  std::vector<std::string> mutexes;  ///< constructor arguments (the locks)
  int depth = 0;                     ///< brace depth of the declaration
  bool engaged = true;               ///< false between .unlock() and .lock()
};

/// no-lock-across-blocking-call: future::get(), get_within() or a
/// condition wait on a handle that does not release the held guard, while
/// a LockGuard/lock_guard/unique_lock/scoped_lock is live. Scope tracking
/// is brace-depth based; a guard dies when its block closes. Limitation
/// (by design): a lambda *defined* inside a guarded scope is scanned as if
/// it ran under the lock — hoist blocking lambdas out of critical sections.
void check_lock_across_blocking(std::string_view text,
                                const Reporter& report) {
  std::vector<ActiveGuard> guards;
  int depth = 0;
  std::size_t line = 0;
  std::size_t i = 0;

  // Advances `i` to `end`, keeping line/depth bookkeeping and retiring
  // guards whose scope closed.
  const auto consume = [&](std::size_t end) {
    for (; i < end && i < text.size(); ++i) {
      const char c = text[i];
      if (c == '\n') {
        ++line;
      } else if (c == '{') {
        ++depth;
      } else if (c == '}') {
        --depth;
        std::erase_if(guards,
                      [&](const ActiveGuard& g) { return g.depth > depth; });
      }
    }
  };

  const auto engaged_count = [&] {
    return std::count_if(guards.begin(), guards.end(),
                         [](const ActiveGuard& g) { return g.engaged; });
  };
  const auto innermost_engaged = [&]() -> const ActiveGuard* {
    for (auto it = guards.rbegin(); it != guards.rend(); ++it) {
      if (it->engaged) return &*it;
    }
    return nullptr;
  };
  const auto mutex_label = [](const ActiveGuard& g) {
    std::string out;
    for (const std::string& m : g.mutexes) {
      if (!out.empty()) out += ", ";
      out += m;
    }
    return out.empty() ? std::string("?") : out;
  };
  const auto skip_ws = [&](std::size_t p) {
    while (p < text.size() &&
           std::isspace(static_cast<unsigned char>(text[p]))) {
      ++p;
    }
    return p;
  };
  const auto receiver_before = [&](std::size_t dot) {
    std::size_t rs = dot;
    while (rs > 0 && is_ident_char(text[rs - 1])) --rs;
    return text.substr(rs, dot - rs);
  };

  while (i < text.size()) {
    if (!is_ident_char(text[i])) {
      consume(i + 1);
      continue;
    }
    const std::size_t start = i;
    std::size_t end = i;
    while (end < text.size() && is_ident_char(text[end])) ++end;
    const std::string_view ident = text.substr(start, end - start);
    const char prev = start > 0 ? text[start - 1] : '\0';

    // Guard declaration: `LockGuard name(mutex, ...)` (or brace-init).
    if (ident == "LockGuard" || ident == "lock_guard" ||
        ident == "unique_lock" || ident == "scoped_lock") {
      std::size_t j = end;
      if (j < text.size() && text[j] == '<') {
        const std::size_t close = match_close(text, j, '<', '>');
        if (close == std::string_view::npos) {
          consume(end);
          continue;
        }
        j = close + 1;
      }
      j = skip_ws(j);
      const std::size_t name_start = j;
      while (j < text.size() && is_ident_char(text[j])) ++j;
      const std::string var(text.substr(name_start, j - name_start));
      j = skip_ws(j);
      if (var.empty() || j >= text.size() ||
          (text[j] != '(' && text[j] != '{')) {
        consume(end);
        continue;
      }
      std::vector<std::string_view> args;
      std::size_t consumed = 0;
      if (!split_macro_args(text.substr(j + 1), &args, &consumed)) {
        consume(end);
        continue;
      }
      ActiveGuard g;
      g.var = var;
      g.depth = depth;
      for (std::string_view a : args) {
        a = trim(a);
        while (!a.empty() && (a.front() == '&' || a.front() == '*')) {
          a.remove_prefix(1);
        }
        if (!a.empty()) g.mutexes.emplace_back(a);
      }
      consume(j + 1 + consumed);
      guards.push_back(std::move(g));
      continue;
    }

    // `guard.unlock()` / `guard.lock()` toggle engagement mid-scope.
    if ((ident == "unlock" || ident == "lock") && prev == '.') {
      const std::string_view receiver = receiver_before(start - 1);
      for (ActiveGuard& g : guards) {
        if (g.var == receiver) g.engaged = ident == "lock";
      }
      consume(end);
      continue;
    }

    const ActiveGuard* held = innermost_engaged();
    if (held != nullptr) {
      if (ident == "get" && prev == '.' &&
          text.substr(end).starts_with("()")) {
        // Same receiver heuristic as no-unchecked-future-get.
        std::string receiver(receiver_before(start - 1));
        std::transform(receiver.begin(), receiver.end(), receiver.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        if (receiver.find("future") != std::string::npos) {
          report(line, "no-lock-across-blocking-call",
                 "future::get() while lock guard '" + held->var +
                     "' holds '" + mutex_label(*held) +
                     "' — blocking with a mutex held stalls every other "
                     "user of that lock; release the guard first");
        }
      } else if (ident == "get_within" && prev != '.' &&
                 skip_ws(end) < text.size() && text[skip_ws(end)] == '(') {
        report(line, "no-lock-across-blocking-call",
               "get_within() while lock guard '" + held->var + "' holds '" +
                   mutex_label(*held) +
                   "' — even a bounded wait keeps the mutex pinned; release "
                   "the guard before waiting");
      } else if ((ident == "wait" || ident == "wait_for" ||
                  ident == "wait_until") &&
                 prev == '.' && end < text.size() && text[end] == '(') {
        std::vector<std::string_view> args;
        std::size_t consumed = 0;
        std::string_view first;
        if (split_macro_args(text.substr(end + 1), &args, &consumed) &&
            !args.empty()) {
          first = trim(args.front());
          while (!first.empty() &&
                 (first.front() == '&' || first.front() == '*')) {
            first.remove_prefix(1);
          }
        }
        // A wait is safe only when it releases the one engaged guard
        // (named by guard variable, std-style, or by the guarded mutex).
        bool releases_held = false;
        for (const ActiveGuard& g : guards) {
          if (!g.engaged) continue;
          if (first == g.var ||
              std::find(g.mutexes.begin(), g.mutexes.end(), first) !=
                  g.mutexes.end()) {
            releases_held = true;
          }
        }
        if (!releases_held || engaged_count() > 1) {
          const std::string_view receiver = receiver_before(start - 1);
          report(line, "no-lock-across-blocking-call",
                 "'" + std::string(receiver) + "." + std::string(ident) +
                     "' does not release lock guard '" + held->var + "' ('" +
                     mutex_label(*held) +
                     "') — waiting while holding a foreign mutex risks "
                     "deadlock; wait on the guarded mutex or drop the "
                     "guard");
        }
      }
    }
    consume(end);
  }
}

/// Per-line and per-file suppressions parsed from the raw text.
struct Suppressions {
  std::vector<std::vector<std::string>> by_line;  // [line-1] → rules
  std::vector<std::string> file_wide;
};

void parse_rule_list(std::string_view list, std::vector<std::string>* out) {
  std::size_t start = 0;
  while (start < list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string_view::npos) comma = list.size();
    const std::string_view rule = trim(list.substr(start, comma - start));
    if (!rule.empty()) out->emplace_back(rule);
    start = comma + 1;
  }
}

Suppressions parse_suppressions(const std::vector<std::string_view>& lines) {
  Suppressions sup;
  sup.by_line.resize(lines.size());
  constexpr std::string_view kTag = "scwc-lint:";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::size_t tag = lines[i].find(kTag);
    if (tag == std::string_view::npos) continue;
    const std::string_view rest = lines[i].substr(tag + kTag.size());
    for (const auto& [directive, file_wide] :
         {std::pair<std::string_view, bool>{"allow-file(", true},
          std::pair<std::string_view, bool>{"allow(", false}}) {
      const std::size_t open = rest.find(directive);
      if (open == std::string_view::npos) continue;
      const std::size_t list_start = open + directive.size();
      const std::size_t close = rest.find(')', list_start);
      if (close == std::string_view::npos) continue;
      const std::string_view list = rest.substr(list_start, close - list_start);
      parse_rule_list(list, file_wide ? &sup.file_wide : &sup.by_line[i]);
      break;  // "allow-file(" also contains "allow(" — stop after a match
    }
  }
  return sup;
}

bool suppressed(const Suppressions& sup, std::size_t line_index,
                std::string_view rule) {
  const auto match = [rule](const std::string& r) { return r == rule; };
  if (std::any_of(sup.file_wide.begin(), sup.file_wide.end(), match)) {
    return true;
  }
  return line_index < sup.by_line.size() &&
         std::any_of(sup.by_line[line_index].begin(),
                     sup.by_line[line_index].end(), match);
}

}  // namespace

FileContext classify_path(std::string_view rel_path) {
  FileContext ctx;
  ctx.is_header = rel_path.ends_with(".hpp");
  ctx.in_lib = rel_path.starts_with("src/");
  ctx.in_tests = rel_path.starts_with("tests/");
  ctx.is_rng_impl = rel_path.starts_with("src/common/rng.");
  ctx.is_env_impl = rel_path.starts_with("src/common/env.");
  ctx.in_serve = rel_path.starts_with("src/serve/");
  ctx.in_cluster = rel_path.starts_with("src/cluster/");
  ctx.in_net = rel_path.starts_with("src/net/");
  ctx.is_sync_impl = rel_path.starts_with("src/common/mutex.") ||
                     rel_path.starts_with("src/common/lock_order.") ||
                     rel_path.starts_with("src/common/thread_annotations.");
  ctx.is_socket_impl = rel_path.starts_with("src/net/socket.");
  return ctx;
}

std::string strip_comments_and_strings(std::string_view source) {
  std::string out;
  out.reserve(source.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < source.size(); ++i) {
    const char c = source[i];
    const char next = i + 1 < source.size() ? source[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == '"') {
          // R"(...)" raw strings: skip to the matching close-delimiter so
          // unescaped quotes/backslashes inside don't derail the scan.
          const bool raw = i > 0 && source[i - 1] == 'R';
          if (raw) {
            const std::size_t paren = source.find('(', i + 1);
            if (paren != std::string_view::npos) {
              const std::string delim(source.substr(i + 1, paren - i - 1));
              const std::string closer = ")" + delim + "\"";
              const std::size_t close = source.find(closer, paren + 1);
              const std::size_t end = close == std::string_view::npos
                                          ? source.size()
                                          : close + closer.size();
              out += '"';
              for (std::size_t j = i + 1; j < end; ++j) {
                out += source[j] == '\n' ? '\n' : ' ';
              }
              i = end - 1;
              break;
            }
          }
          state = State::kString;
          out += c;
        } else if (c == '\'') {
          state = State::kChar;
          out += c;
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out += c;
        } else {
          out += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
      case State::kChar: {
        const char terminator = state == State::kString ? '"' : '\'';
        if (c == '\\') {
          out += "  ";
          ++i;
          if (next == '\n') out.back() = '\n';
        } else if (c == terminator) {
          state = State::kCode;
          out += c;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      }
    }
  }
  return out;
}

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kNames = {
      "no-raw-rand",  "no-stdout-in-lib", "no-raw-getenv",
      "pragma-once",  "no-float-eq",      "no-naked-new",
      "no-unchecked-future-get", "no-raw-chrono-timing",
      "no-raw-std-mutex", "guarded-field-coverage",
      "no-lock-across-blocking-call", "no-raw-socket-calls",
  };
  return kNames;
}

std::vector<Finding> lint_source(std::string_view rel_path,
                                 std::string_view raw,
                                 const FileContext& ctx) {
  std::vector<Finding> findings;
  const std::vector<std::string_view> raw_lines = split_lines(raw);
  const std::string stripped = strip_comments_and_strings(raw);
  const std::vector<std::string_view> lines = split_lines(stripped);
  const Suppressions sup = parse_suppressions(raw_lines);

  const auto report = [&](std::size_t line_index, std::string_view rule,
                          std::string message) {
    if (suppressed(sup, line_index, rule)) return;
    findings.push_back(Finding{std::string(rel_path), line_index + 1,
                               std::string(rule), std::move(message)});
  };

  // pragma-once: headers must carry the guard on a real (non-comment) line.
  if (ctx.is_header) {
    const bool found =
        std::any_of(lines.begin(), lines.end(), [](std::string_view l) {
          const std::string_view t = trim(l);
          return t == "#pragma once" || t.starts_with("#pragma once");
        });
    if (!found) {
      report(0, "pragma-once", "header is missing '#pragma once'");
    }
  }

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string_view line = lines[i];

    // no-raw-rand
    if (!ctx.is_rng_impl) {
      for (const std::string_view token : {"rand", "srand", "rand_r"}) {
        if (has_token(line, token)) {
          report(i, "no-raw-rand",
                 "'" + std::string(token) +
                     "' breaks reproducibility — draw from scwc::Rng "
                     "(src/common/rng.hpp)");
        }
      }
      if (has_token(line, "random_device")) {
        report(i, "no-raw-rand",
               "'std::random_device' is non-deterministic — seed scwc::Rng "
               "explicitly instead");
      }
    }

    // no-stdout-in-lib
    if (ctx.in_lib) {
      if (line.find("std::cout") != std::string_view::npos) {
        report(i, "no-stdout-in-lib",
               "library code must not print to std::cout — use SCWC_LOG_* "
               "or take a std::ostream&");
      }
      for (const std::string_view token : {"printf", "puts", "putchar"}) {
        if (has_token(line, token)) {
          report(i, "no-stdout-in-lib",
                 "library code must not call '" + std::string(token) +
                     "' — use SCWC_LOG_* or take a std::ostream&");
        }
      }
    }

    // no-raw-std-mutex: library code must lock through the annotated
    // wrappers (src/common/mutex.hpp) so Clang thread-safety analysis and
    // the lock-order tracker can see every acquisition. The sync layer
    // itself is exempt by path — it is the one place the raw primitives
    // are allowed to live.
    if (ctx.in_lib && !ctx.is_sync_impl) {
      for (const std::string_view prim :
           {"mutex", "timed_mutex", "recursive_mutex",
            "recursive_timed_mutex", "shared_mutex", "shared_timed_mutex",
            "condition_variable", "condition_variable_any", "lock_guard",
            "unique_lock", "scoped_lock", "shared_lock"}) {
        const std::string pattern = "std::" + std::string(prim);
        std::size_t pos = line.find(pattern);
        bool fired = false;
        while (pos != std::string_view::npos) {
          const bool left_ok =
              pos == 0 ||
              (!is_ident_char(line[pos - 1]) && line[pos - 1] != ':');
          const std::size_t after = pos + pattern.size();
          const bool right_ok =
              after >= line.size() || !is_ident_char(line[after]);
          if (left_ok && right_ok) {
            report(i, "no-raw-std-mutex",
                   "'" + pattern +
                       "' in library code — use scwc::Mutex / CondVar / "
                       "LockGuard (src/common/mutex.hpp) so thread-safety "
                       "annotations and the lock-order tracker apply");
            fired = true;
            break;
          }
          pos = line.find(pattern, pos + 1);
        }
        if (fired) break;  // one report per line is enough
      }
    }

    // no-raw-getenv
    if (!ctx.is_env_impl && has_token(line, "getenv")) {
      report(i, "no-raw-getenv",
             "read environment variables through scwc::env_string/env_int "
             "(src/common/env.hpp)");
    }

    // no-raw-socket-calls: a global-scope socket syscall (`::bind(` with
    // nothing qualifying the `::`) outside src/net/socket.*. Keyed on the
    // explicit `::` so `std::bind(`, `sock.connect(...)` wrappers and
    // FrameType::kShutdown never fire — the project style always spells
    // raw syscalls with the global qualifier, and socket.{hpp,cpp}, the
    // one place allowed to make them, is exempt by path.
    if (!ctx.is_socket_impl) {
      for (const std::string_view syscall :
           {"socket", "socketpair", "bind", "connect", "listen", "accept",
            "send", "recv", "sendto", "recvfrom", "shutdown", "setsockopt",
            "getsockopt", "getsockname", "poll"}) {
        const std::string pattern = "::" + std::string(syscall) + "(";
        std::size_t pos = line.find(pattern);
        bool fired = false;
        while (pos != std::string_view::npos) {
          // Global scope only: `x::bind(`/`>::send(` are qualified names.
          const bool global =
              pos == 0 ||
              (!is_ident_char(line[pos - 1]) && line[pos - 1] != ':' &&
               line[pos - 1] != '>');
          if (global) {
            report(i, "no-raw-socket-calls",
                   "raw '::" + std::string(syscall) +
                       "()' outside src/net/socket.* — go through "
                       "net::Socket / LocalListener (router-worker "
                       "wire) / TcpListener (HTTP) / FrameReader / "
                       "write_frame (src/net/socket.hpp)");
            fired = true;
            break;
          }
          pos = line.find(pattern, pos + 1);
        }
        if (fired) break;  // one report per line is enough
      }
    }

    // no-unchecked-future-get: in lib code, a bare .get() on a future
    // blocks forever if the promise side is lost — the serve layer must
    // bound every wait (wait_for/wait_until, or serve::get_within which
    // wraps them). Keyed on the receiver identifier containing "future" so
    // shared_ptr::get()/istream::get() and friends never fire.
    if (ctx.in_lib) {
      std::size_t pos = 0;
      while ((pos = line.find(".get()", pos)) != std::string_view::npos) {
        std::size_t start = pos;
        while (start > 0 && is_ident_char(line[start - 1])) --start;
        std::string receiver(line.substr(start, pos - start));
        std::transform(receiver.begin(), receiver.end(), receiver.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        const bool guarded = line.find("wait_for") != std::string_view::npos ||
                             line.find("wait_until") !=
                                 std::string_view::npos ||
                             line.find("get_within") != std::string_view::npos;
        if (!guarded && receiver.find("future") != std::string::npos) {
          report(i, "no-unchecked-future-get",
                 "unbounded future::get() in library code — wait with a "
                 "deadline (wait_for/wait_until or serve::get_within) first");
          break;
        }
        pos += 6;
      }
    }

    // no-naked-new / naked delete
    {
      std::size_t pos = find_token(line, "new");
      while (pos != std::string_view::npos) {
        const std::string_view before = trim(line.substr(0, pos));
        const bool op_overload = before.ends_with("operator");
        if (!op_overload) {
          report(i, "no-naked-new",
                 "naked 'new' — own memory with std::make_unique / "
                 "containers");
          break;
        }
        pos = find_token(line, "new", pos + 3);
      }
      pos = find_token(line, "delete");
      while (pos != std::string_view::npos) {
        const std::string_view before = trim(line.substr(0, pos));
        const bool deleted_fn = before.ends_with("=");   // `= delete;`
        const bool op_overload = before.ends_with("operator");
        if (!deleted_fn && !op_overload) {
          report(i, "no-naked-new",
                 "naked 'delete' — pair allocation with RAII ownership "
                 "instead");
          break;
        }
        pos = find_token(line, "delete", pos + 6);
      }
    }
  }

  // no-raw-chrono-timing: whole-text scan (the delta often spans lines).
  // In src/serve/, src/cluster/ and src/net/, `duration<double>(a - b)` /
  // `duration_cast<...>(a - b)` is an inline clock delta — request timing
  // must flow through obs::seconds_between / signed_seconds_between
  // instead, so every phase measurement shares one clamped, lint-visible
  // helper. (src/net/ joined when the clock-offset handshake gave the wire
  // layer its own timing code.)
  if (ctx.in_serve || ctx.in_cluster || ctx.in_net) {
    const std::string_view text = stripped;
    for (const std::string_view token : {"duration", "duration_cast"}) {
      std::size_t pos = 0;
      while ((pos = find_token(text, token, pos)) != std::string_view::npos) {
        std::size_t after = pos + token.size();
        // Skip one balanced template argument list, if present.
        if (after < text.size() && text[after] == '<') {
          int depth = 0;
          while (after < text.size()) {
            if (text[after] == '<') ++depth;
            if (text[after] == '>' && --depth == 0) {
              ++after;
              break;
            }
            ++after;
          }
        }
        if (after >= text.size() || text[after] != '(') {
          pos += token.size();
          continue;
        }
        std::vector<std::string_view> parts;
        std::size_t consumed = 0;
        if (split_macro_args(text.substr(after + 1), &parts, &consumed) &&
            std::any_of(parts.begin(), parts.end(), has_binary_minus)) {
          const std::size_t line_index = static_cast<std::size_t>(
              std::count(text.begin(),
                         text.begin() + static_cast<std::ptrdiff_t>(pos),
                         '\n'));
          report(line_index, "no-raw-chrono-timing",
                 "inline clock delta in request-path code — measure with "
                 "obs::seconds_between / signed_seconds_between "
                 "(src/obs/request_trace.hpp)");
        }
        pos = after + 1 + consumed;
      }
    }
  }

  // Declaration-aware checks over the stripped text: class bodies for
  // guarded-field coverage, guard-variable scopes for blocking calls.
  if (ctx.in_lib && !ctx.is_sync_impl) {
    const Reporter sink = report;
    check_guarded_field_coverage(stripped, sink);
    check_lock_across_blocking(stripped, sink);
  }

  // no-float-eq: scan the whole stripped text so multi-line macros parse.
  if (ctx.in_tests) {
    for (const std::string_view macro : {"EXPECT_EQ", "ASSERT_EQ",
                                         "EXPECT_NE", "ASSERT_NE"}) {
      std::size_t pos = 0;
      const std::string_view text = stripped;
      while ((pos = find_token(text, macro, pos)) !=
             std::string_view::npos) {
        const std::size_t open = text.find('(', pos + macro.size());
        if (open == std::string_view::npos) break;
        std::vector<std::string_view> parts;
        std::size_t consumed = 0;
        if (split_macro_args(text.substr(open + 1), &parts, &consumed) &&
            std::any_of(parts.begin(), parts.end(), is_float_literal)) {
          const std::size_t line_index = static_cast<std::size_t>(
              std::count(text.begin(),
                         text.begin() + static_cast<std::ptrdiff_t>(pos),
                         '\n'));
          report(line_index, "no-float-eq",
                 std::string(macro) +
                     " against a float literal — use EXPECT_DOUBLE_EQ or "
                     "EXPECT_NEAR with an epsilon");
        }
        pos = open + 1 + consumed;
      }
    }
  }

  return findings;
}

namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string findings_to_json(const std::vector<Finding>& findings) {
  std::string out = "{\"schema\":\"scwc.lint/v1\",\"count\":";
  out += std::to_string(findings.size());
  out += ",\"findings\":[";
  bool first = true;
  for (const Finding& f : findings) {
    if (!first) out += ',';
    first = false;
    out += "{\"file\":\"" + json_escape(f.file) + "\"";
    out += ",\"line\":" + std::to_string(f.line);
    out += ",\"rule\":\"" + json_escape(f.rule) + "\"";
    out += ",\"message\":\"" + json_escape(f.message) + "\"}";
  }
  out += "]}";
  return out;
}

std::vector<Finding> lint_tree(const std::filesystem::path& root) {
  namespace fs = std::filesystem;
  std::vector<Finding> findings;
  std::vector<std::string> rel_paths;
  for (const std::string_view top : {"src", "bench", "tests", "tools"}) {
    const fs::path dir = root / top;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp") continue;
      rel_paths.push_back(
          fs::relative(entry.path(), root).generic_string());
    }
  }
  std::sort(rel_paths.begin(), rel_paths.end());
  for (const std::string& rel : rel_paths) {
    std::ifstream in(root / rel, std::ios::binary);
    if (!in.is_open()) {
      findings.push_back(
          Finding{rel, 0, "io-error", "cannot open file for linting"});
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string raw = buf.str();
    std::vector<Finding> file_findings =
        lint_source(rel, raw, classify_path(rel));
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  return findings;
}

}  // namespace scwc::lint
