#include "qwm/service/router.h"

#include <cctype>

namespace qwm::service {

namespace {

std::string first_word_lower(const std::string& line) {
  std::string word;
  for (const char c : line) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!word.empty()) break;
      continue;
    }
    word.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return word;
}

}  // namespace

Router::Router(Fleet* fleet, RouterOptions opt)
    : fleet_(fleet),
      transport_(TransportOptions{opt.threads, opt.queue_capacity,
                                  opt.deadline_ms}) {
  transport_.set_handler(
      [this](const std::string& line) { return handle_line(line); });
  transport_.set_fast_handler(
      [this](const std::string& line, std::string* response) {
        if (first_word_lower(line) != "health") return false;
        *response = fleet_->health_line();
        return true;
      });
}

Router::~Router() { request_shutdown(); }

std::string Router::handle_line(const std::string& line) {
  const std::string resp = fleet_->handle_line(line);
  // The fleet already broadcast SHUTDOWN to its replicas; this router's
  // own transport stops after the reply is delivered.
  if (first_word_lower(line) == "shutdown") transport_.request_shutdown();
  return resp;
}

int Router::serve_stream(std::istream& in, std::ostream& out) {
  return transport_.serve_stream(in, out);
}

bool Router::listen(int port) { return transport_.listen(port); }

void Router::serve() { transport_.serve(); }

void Router::request_shutdown() { transport_.request_shutdown(); }

}  // namespace qwm::service
