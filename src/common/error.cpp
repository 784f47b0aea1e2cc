#include "common/error.hpp"

#include <sstream>
#include <utility>

namespace scwc {

namespace {
std::string format_what(std::string_view what_arg, std::string_view file,
                        int line) {
  std::ostringstream os;
  os << what_arg << " [" << file << ":" << line << "]";
  return os.str();
}
}  // namespace

Error::Error(std::string_view what_arg, std::string_view file, int line)
    : std::runtime_error(format_what(what_arg, file, line)),
      file_(file),
      line_(line) {}

Error::Error(Verbatim, const std::string& what_arg, std::string file,
             int line)
    : std::runtime_error(what_arg), file_(std::move(file)), line_(line) {}

Error Error::deep_copy() const {
  return Error(Verbatim{}, std::string(what()), std::string(file_), line_);
}

namespace detail {

void throw_error(std::string_view expr, std::string_view msg,
                 std::string_view file, int line) {
  std::ostringstream os;
  os << "check failed: (" << expr << ") — " << msg;
  throw Error(os.str(), file, line);
}

}  // namespace detail
}  // namespace scwc
