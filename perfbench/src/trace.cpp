#include "trace.hpp"

#include <iomanip>

namespace perfbench {

std::uint32_t Tracer::intern(const std::string& name) {
  const auto [it, inserted] =
      ids_.try_emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

std::size_t Tracer::begin(std::uint32_t name) {
  const std::int64_t parent =
      open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  spans_.push_back({name, pass_, parent, now_ns(), 0});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t span) {
  spans_[span].end_ns = now_ns();
  // Spans close in LIFO order; an exception unwinding several scopes
  // still pops each one exactly once.
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Tracer::add(std::uint32_t name, std::int64_t start_ns,
                 std::int64_t end_ns) {
  const std::int64_t parent =
      open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  spans_.push_back({name, pass_, parent, start_ns, end_ns});
}

void Tracer::counter(std::uint32_t name, std::int64_t at_ns, double value) {
  samples_.push_back({name, at_ns, value});
}

std::map<std::string, double> Tracer::self_seconds(std::int32_t pass) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.pass == pass && s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.pass != pass) continue;
    out[names_[s.name]] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

void Tracer::write_chrome_json(std::ostream& out,
                               const std::string& stamp) const {
  const auto us = [this](std::int64_t ns) {
    return static_cast<double>(ns - origin_ns_) * 1e-3;
  };
  out << std::fixed << std::setprecision(3);
  out << "{\"otherData\":" << stamp << ",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << names_[s.name]
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << us(s.start_ns)
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ",\"args\":{\"pass\":" << s.pass << ",\"parent\":" << s.parent
        << "}}";
    first = false;
  }
  for (const Sample& c : samples_) {
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << names_[c.name]
        << "\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":" << us(c.at_ns)
        << ",\"args\":{\"value\":" << c.value << "}}";
    first = false;
  }
  out << "\n]}\n";
}

}  // namespace perfbench
