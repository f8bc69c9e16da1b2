// memsched_submitctl — client for the memsched_served sweep daemon.
//
//   memsched_submitctl submit socket=PATH [wait=0|1] <grid key=value...>
//       Submit a grid sweep (same keys as `memsched_sweep grid`:
//       workloads=, schemes=, insts=, ...). Prints the job id. Submission
//       is exactly-once: the daemon acknowledges only after the job is
//       durable, retries are deduplicated by the sweep fingerprint.
//   memsched_submitctl status socket=PATH [id=N]
//       One line per job (or the one job): id, state, attempts, error.
//   memsched_submitctl result socket=PATH id=N [out=PATH]
//       Fetch a finished job's report (stdout by default). Bytes are
//       identical to the same grid run through memsched_sweep with a
//       shared result cache.
//   memsched_submitctl wait socket=PATH id=N [timeout=SECONDS]
//       Block until the job is terminal; exit 0 iff it completed.
//   memsched_submitctl cancel socket=PATH id=N
//   memsched_submitctl ping socket=PATH
//   memsched_submitctl drain socket=PATH
//       Ask the daemon to finish in-flight jobs and exit.
//
// Every request is one connect/request/reply exchange with bounded
// retry+backoff (retries=, default 5) so a daemon mid-restart is waited
// out, not errored out.
#include <unistd.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/guarded_main.hpp"
#include "serve/wire.hpp"
#include "util/backoff.hpp"
#include "util/config.hpp"
#include "util/unix_socket.hpp"
#include "util/wallclock.hpp"

using namespace memsched;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: memsched_submitctl <submit|status|result|wait|cancel|ping|drain> "
      "socket=PATH [key=value...]\n"
      "  submit  [wait=0|1] [retries=N] <grid keys: workloads= schemes= ...>\n"
      "  status  [id=N]\n"
      "  result  id=N [out=PATH]\n"
      "  wait    id=N [timeout=SECONDS]\n"
      "  cancel  id=N\n");
  throw std::invalid_argument("bad submitctl command line");
}

/// Transport/behaviour keys owned by this tool; everything else on a submit
/// line is part of the grid spec and forwarded to the daemon verbatim.
bool is_transport_key(const std::string& key) {
  return key == "socket" || key == "retries" || key == "wait" || key == "out" ||
         key == "id" || key == "timeout";
}

/// One request/reply exchange with bounded retry. Returns false (with a
/// message on stderr) once the retry budget is exhausted.
bool request(const std::string& socket_path, const util::Json& req,
             std::uint32_t retries, util::Json* resp, std::string* extra) {
  const util::Backoff backoff{0.2, 5.0};
  std::string last_error = "daemon unreachable";
  for (std::uint32_t attempt = 1; attempt <= retries; ++attempt) {
    if (attempt > 1) {
      ::usleep(static_cast<useconds_t>(backoff.delay_seconds(attempt - 1) * 1e6));
    }
    util::Fd conn = util::unix_connect(socket_path);
    if (!conn.valid()) {
      last_error = "cannot connect to " + socket_path;
      continue;
    }
    if (!serve::write_json(conn.get(), req)) {
      last_error = "write failed";
      continue;
    }
    std::vector<std::uint8_t> payload;
    std::string err;
    if (!serve::read_message(conn.get(), &payload, &err)) {
      last_error = "no reply (" + err + ")";
      continue;
    }
    try {
      *resp = util::Json::parse(std::string_view(
          reinterpret_cast<const char*>(payload.data()), payload.size()));
    } catch (const std::exception& e) {
      last_error = std::string("bad reply: ") + e.what();
      continue;
    }
    if (extra != nullptr) {
      extra->clear();
      const util::Json* ok = resp->find("ok");
      const util::Json* bytes = resp->find("bytes");
      if (ok != nullptr && ok->as_bool() && bytes != nullptr) {
        std::vector<std::uint8_t> body;
        if (!serve::read_message(conn.get(), &body, &err)) {
          last_error = "report frame missing (" + err + ")";
          continue;
        }
        extra->assign(body.begin(), body.end());
      }
    }
    return true;
  }
  std::fprintf(stderr, "memsched_submitctl: %s after %u attempt(s)\n",
               last_error.c_str(), retries);
  return false;
}

std::string required_socket(const util::Config& cli) {
  const std::string path = cli.get_string("socket", "");
  if (path.empty()) usage();
  return path;
}

/// Reply error text, or "" when the reply is ok:true.
std::string reply_error(const util::Json& resp) {
  const util::Json* ok = resp.find("ok");
  if (ok != nullptr && ok->is_bool() && ok->as_bool()) return {};
  const util::Json* err = resp.find("error");
  return err != nullptr && err->is_string() ? err->as_string() : "unknown error";
}

int wait_for_job(const std::string& socket_path, std::uint64_t id,
                 double timeout_seconds, std::uint32_t retries) {
  const util::MonotonicTime deadline =
      util::monotonic_now() + util::seconds_to_duration(timeout_seconds);
  for (;;) {
    util::Json req = util::Json::object();
    req["cmd"] = "status";
    req["id"] = id;
    util::Json resp;
    if (!request(socket_path, req, retries, &resp, nullptr)) return 1;
    if (const std::string err = reply_error(resp); !err.empty()) {
      std::fprintf(stderr, "memsched_submitctl: %s\n", err.c_str());
      return 1;
    }
    const util::Json& job = resp.at("jobs").at(0);
    const std::string& state = job.at("state").as_string();
    if (state == "done") return 0;
    if (state == "failed" || state == "cancelled") {
      const util::Json* err = job.find("error");
      std::fprintf(stderr, "memsched_submitctl: job %llu %s%s%s\n",
                   static_cast<unsigned long long>(id), state.c_str(),
                   err != nullptr ? ": " : "",
                   err != nullptr ? err->as_string().c_str() : "");
      return 1;
    }
    if (util::monotonic_now() >= deadline) {
      std::fprintf(stderr, "memsched_submitctl: timed out waiting for job %llu\n",
                   static_cast<unsigned long long>(id));
      return 1;
    }
    ::usleep(200 * 1000);
  }
}

int cmd_submit(const util::Config& cli) {
  const std::string socket_path = required_socket(cli);
  const auto retries = static_cast<std::uint32_t>(cli.get_uint("retries", 5));

  std::string spec;
  for (const std::string& key : cli.keys()) {
    if (is_transport_key(key)) continue;
    spec += key + "=" + cli.get_string(key, "") + "\n";
  }

  util::Json req = util::Json::object();
  req["cmd"] = "submit";
  req["spec"] = spec;
  util::Json resp;
  if (!request(socket_path, req, retries, &resp, nullptr)) return 1;
  if (const std::string err = reply_error(resp); !err.empty()) {
    std::fprintf(stderr, "memsched_submitctl: %s\n", err.c_str());
    return 1;
  }
  const std::uint64_t id = resp.at("id").as_uint();
  std::printf("job %llu %s%s\n", static_cast<unsigned long long>(id),
              resp.at("state").as_string().c_str(),
              resp.at("duplicate").as_bool() ? " (duplicate)" : "");
  // submit deliberately has no check_known: every non-transport key is part
  // of the grid spec and the daemon validates the full vocabulary.
  if (cli.get_bool("wait", false)) {  // memsched-lint: allow(contract-config-key)
    return wait_for_job(socket_path, id, cli.get_double("timeout", 600.0), retries);
  }
  return 0;
}

int cmd_status(const util::Config& cli) {
  if (const auto err = cli.check_known({"socket", "id", "retries"})) {
    throw std::invalid_argument(*err);
  }
  util::Json req = util::Json::object();
  req["cmd"] = "status";
  if (cli.has("id")) req["id"] = cli.get_uint("id", 0);
  util::Json resp;
  if (!request(required_socket(cli), req,
               static_cast<std::uint32_t>(cli.get_uint("retries", 5)), &resp,
               nullptr)) {
    return 1;
  }
  if (const std::string err = reply_error(resp); !err.empty()) {
    std::fprintf(stderr, "memsched_submitctl: %s\n", err.c_str());
    return 1;
  }
  for (const util::Json& job : resp.at("jobs").elements()) {
    const util::Json* err = job.find("error");
    std::printf("job %llu  %-9s attempts=%llu%s%s\n",
                static_cast<unsigned long long>(job.at("id").as_uint()),
                job.at("state").as_string().c_str(),
                static_cast<unsigned long long>(job.at("attempts").as_uint()),
                err != nullptr ? "  error=" : "",
                err != nullptr ? err->as_string().c_str() : "");
  }
  return 0;
}

int cmd_result(const util::Config& cli) {
  if (const auto err = cli.check_known({"socket", "id", "out", "retries"})) {
    throw std::invalid_argument(*err);
  }
  if (!cli.has("id")) return usage();
  util::Json req = util::Json::object();
  req["cmd"] = "result";
  req["id"] = cli.get_uint("id", 0);
  util::Json resp;
  std::string report;
  if (!request(required_socket(cli), req,
               static_cast<std::uint32_t>(cli.get_uint("retries", 5)), &resp,
               &report)) {
    return 1;
  }
  if (const std::string err = reply_error(resp); !err.empty()) {
    std::fprintf(stderr, "memsched_submitctl: %s\n", err.c_str());
    return 1;
  }
  const std::string out = cli.get_string("out", "");
  if (out.empty()) {
    std::fwrite(report.data(), 1, report.size(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(out.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "memsched_submitctl: cannot write %s\n", out.c_str());
    return 1;
  }
  std::fwrite(report.data(), 1, report.size(), f);
  std::fclose(f);
  return 0;
}

int cmd_wait(const util::Config& cli) {
  if (const auto err = cli.check_known({"socket", "id", "timeout", "retries"})) {
    throw std::invalid_argument(*err);
  }
  if (!cli.has("id")) return usage();
  return wait_for_job(required_socket(cli), cli.get_uint("id", 0),
                      cli.get_double("timeout", 600.0),
                      static_cast<std::uint32_t>(cli.get_uint("retries", 5)));
}

int cmd_simple(const util::Config& cli, const char* cmd) {
  if (const auto err = cli.check_known({"socket", "id", "retries"})) {
    throw std::invalid_argument(*err);
  }
  util::Json req = util::Json::object();
  req["cmd"] = cmd;
  if (cli.has("id")) req["id"] = cli.get_uint("id", 0);
  util::Json resp;
  if (!request(required_socket(cli), req,
               static_cast<std::uint32_t>(cli.get_uint("retries", 5)), &resp,
               nullptr)) {
    return 1;
  }
  if (const std::string err = reply_error(resp); !err.empty()) {
    std::fprintf(stderr, "memsched_submitctl: %s\n", err.c_str());
    return 1;
  }
  std::printf("%s\n", resp.dump(-1).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return harness::guarded_main("memsched_submitctl", [&] {
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    util::Config cli;
    if (auto err = cli.parse_args(argc - 1, argv + 1)) {
      std::fprintf(stderr, "%s\n", err->c_str());
      return usage();
    }
    if (cmd == "submit") return cmd_submit(cli);
    if (cmd == "status") return cmd_status(cli);
    if (cmd == "result") return cmd_result(cli);
    if (cmd == "wait") return cmd_wait(cli);
    if (cmd == "cancel") return cmd_simple(cli, "cancel");
    if (cmd == "ping") return cmd_simple(cli, "ping");
    if (cmd == "drain") return cmd_simple(cli, "drain");
    const std::string hint = util::did_you_mean(
        cmd, {"submit", "status", "result", "wait", "cancel", "ping", "drain"});
    std::fprintf(stderr, "memsched_submitctl: unknown command '%s'%s\n", cmd.c_str(),
                 hint.c_str());
    return usage();
  });
}
