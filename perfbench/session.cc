#include "session.h"

#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <thread>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.h"
#include "util/rng.h"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kTwiceMaxdist = 3;  // Table 2: maxdist 1.5
constexpr int kRestarts = 3;      // per session
const char kHeader[] = "label1,label2,distance,support,occurrences";

std::vector<std::string> SplitOn(const std::string& text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(sep, start);
    if (end == std::string::npos) end = text.size();
    out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

bool ParseTwice(std::string_view text, int* twice) {
  const size_t dot = text.find('.');
  const std::string_view whole = text.substr(0, dot);
  int value = 0;
  const auto [end, ec] =
      std::from_chars(whole.data(), whole.data() + whole.size(), value);
  if (whole.empty() || ec != std::errc() || end != whole.data() + whole.size()) {
    return false;
  }
  *twice = 2 * value;
  if (dot == std::string_view::npos) return true;
  if (text.substr(dot) != ".5") return false;
  *twice += 1;
  return true;
}

// The benchmark's own client side of the frame format: little-endian
// u32 length, u32 CRC-32 (IEEE, reflected) of the body, then the body.
uint32_t Crc32(const std::string& data) {
  static uint32_t table[256];
  static const bool ready = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      table[i] = c;
    }
    return true;
  }();
  (void)ready;
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char ch : data) crc = table[(crc ^ ch) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

bool WriteAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    data += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool ReadAll(int fd, char* data, size_t n) {
  while (n > 0) {
    const ssize_t r = ::read(fd, data, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    data += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

void PutU32(uint32_t v, char* out) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}
uint32_t GetU32(const char* in) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(static_cast<unsigned char>(in[i])) << (8 * i);
  return v;
}

bool Exchange(int fd, const std::string& body, std::string* reply) {
  char header[8];
  PutU32(static_cast<uint32_t>(body.size()), header);
  PutU32(Crc32(body), header + 4);
  if (!WriteAll(fd, header, 8) || !WriteAll(fd, body.data(), body.size())) {
    return false;
  }
  if (!ReadAll(fd, header, 8)) return false;
  const uint32_t length = GetU32(header);
  if (length > (256u << 20)) return false;
  reply->resize(length);
  if (!ReadAll(fd, reply->data(), length)) return false;
  return Crc32(*reply) == GetU32(header + 4);
}

/// A spawned daemon; the destructor kills and reaps it if still running.
class Daemon {
 public:
  Daemon(const std::vector<std::string>& argv, const std::string& log) {
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 2, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&actions);
  }
  ~Daemon() {
    if (pid_ > 0) Stop();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Connects to `socket_path`, retrying until the daemon listens;
  /// -1 on timeout or if the daemon exited.
  int Connect(const std::string& socket_path, double timeout_s) {
    const auto start = Clock::now();
    while (SecondsSince(start) < timeout_s && pid_ > 0) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return -1;
      }
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", socket_path.c_str());
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
        return fd;
      }
      ::close(fd);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    return -1;
  }

  /// SIGTERM (the daemon drains and exits), then reaps; returns the
  /// peak resident set in KiB from the child's rusage.
  int64_t Stop() {
    if (pid_ <= 0) return 0;
    ::kill(pid_, SIGTERM);
    int status = 0;
    rusage usage{};
    while (wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return usage.ru_maxrss;
  }

 private:
  pid_t pid_ = -1;
};

}  // namespace

bool ReplyOk(const std::string& reply, std::string* payload) {
  const size_t nl = reply.find('\n');
  const std::string status = reply.substr(0, nl);
  *payload = nl == std::string::npos ? "" : reply.substr(nl + 1);
  return status == "OK" || status.rfind("OK ", 0) == 0;
}

bool BuildSessionInputs(const std::string& forest, const SessionPlan& plan,
                        SessionInputs* inputs, std::string* error) {
  std::vector<std::string> lines;
  for (std::string& line : SplitOn(forest, '\n')) {
    if (!line.empty()) lines.push_back(std::move(line));
  }
  const size_t need = static_cast<size_t>(plan.batches) * plan.batch_size;
  if (lines.size() < need) {
    *error = "forest has fewer trees than the session needs";
    return false;
  }
  for (int b = 0; b < plan.batches; ++b) {
    std::string payload;
    for (int t = 0; t < plan.batch_size; ++t) {
      payload += lines[static_cast<size_t>(b) * plan.batch_size + t] + "\n";
    }
    std::vector<OTree> trees;
    if (!ReadForest(payload, &inputs->names, &trees, error)) return false;
    Tally tally;
    for (const OTree& tree : trees) {
      AddItems(NaiveCousinItems(tree, kTwiceMaxdist), 1, &tally);
    }
    inputs->payloads.push_back(std::move(payload));
    inputs->tallies.push_back(std::move(tally));
  }
  return true;
}

void SessionModel::Apply(const Tally& batch, int64_t sign) {
  for (const auto& [key, cell] : batch) {
    auto& mine = tally_[key];
    const bool was = mine.first >= 2;
    mine.first += sign * cell.first;
    mine.second += sign * cell.second;
    const bool is = mine.first >= 2;
    frequent_ += static_cast<int64_t>(is) - static_cast<int64_t>(was);
    if (mine.first == 0) tally_.erase(key);
  }
}

bool SessionModel::CheckListing(const Names& names, const std::string& csv,
                                std::vector<std::string_view>* rows,
                                std::string* why) const {
  rows->clear();
  std::string_view rest(csv);
  auto next_line = [&rest] {
    const size_t nl = rest.find('\n');
    const std::string_view line = rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view() : rest.substr(nl + 1);
    return line;
  };
  if (next_line() != kHeader) {
    *why = "listing without the CSV header";
    return false;
  }
  std::vector<Key> keys;
  keys.reserve(static_cast<size_t>(frequent_));
  int64_t previous = INT64_MAX;
  while (!rest.empty()) {
    const std::string_view line = next_line();
    std::string_view f[5];
    size_t fields = 0;
    for (size_t start = 0; fields < 5;) {
      const size_t comma = line.find(',', start);
      f[fields++] = line.substr(start, comma == std::string_view::npos
                                           ? std::string_view::npos
                                           : comma - start);
      if (comma == std::string_view::npos) break;
      start = comma + 1;
    }
    int twice = 0;
    const int a = fields == 5 ? names.Find(f[0]) : -1;
    const int b = fields == 5 ? names.Find(f[1]) : -1;
    if (a < 0 || b < 0 || !ParseTwice(f[2], &twice)) {
      *why = "unknown row '" + std::string(line) + "'";
      return false;
    }
    const Key key = MakeKey(a, b, twice);
    int64_t support = 0;
    int64_t occurrences = 0;
    std::from_chars(f[3].data(), f[3].data() + f[3].size(), support);
    std::from_chars(f[4].data(), f[4].data() + f[4].size(), occurrences);
    keys.push_back(key);
    if (support > previous) {
      *why = "rows not in descending support at '" + std::string(line) + "'";
      return false;
    }
    previous = support;
    auto it = tally_.find(key);
    if (it == tally_.end() || it->second.first != support ||
        it->second.second != occurrences || support < 2) {
      *why = "row '" + std::string(line) + "' disagrees with the acked state";
      return false;
    }
    rows->push_back(line);
  }
  std::sort(keys.begin(), keys.end());
  if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
    *why = "a row is listed twice";
    return false;
  }
  if (static_cast<int64_t>(rows->size()) != frequent_) {
    *why = "listing has " + std::to_string(rows->size()) + " rows, acked state " +
           std::to_string(frequent_);
    return false;
  }
  return true;
}

bool SessionModel::CheckSupport(const Names& names, std::string_view row,
                                const std::string& csv,
                                std::string* why) const {
  const std::vector<std::string> f = SplitOn(std::string(row), ',');
  const std::string prefix = f[0] + "," + f[1] + "," + f[2] + ",";
  std::vector<std::string> lines = SplitOn(csv, '\n');
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.size() != 2 || lines[0] != kHeader ||
      lines[1].rfind(prefix, 0) != 0) {
    *why = "support reply for " + prefix + " is not one row";
    return false;
  }
  int twice = 0;
  ParseTwice(f[2], &twice);
  const Key key = MakeKey(names.Find(f[0]), names.Find(f[1]), twice);
  auto it = tally_.find(key);
  const std::string want =
      it == tally_.end() ? "" : prefix + std::to_string(it->second.first) + "," +
                                    std::to_string(it->second.second);
  if (lines[1] != want) {
    *why = "support reply '" + lines[1] + "' != acked '" + want + "'";
    return false;
  }
  return true;
}

void DriveSession(const SessionPlan& plan, SessionInputs& inputs,
                  const Transport& send, SessionStats* stats,
                  SessionModel* model) {
  cousins::Rng rng(plan.seed);
  std::vector<int64_t> ids(plan.batches, -1);
  std::string listing;  // the latest checked listing; `rows` view into it
  std::vector<std::string_view> rows;
  int64_t owed_supports = 0;
  // A request the daemon refused or the transport lost is a failed
  // operation; a reply that disagrees with the model is a wrong answer.
  auto fail = [&](const std::string& what) {
    ++stats->failed;
    if (stats->failures.size() < 10) stats->failures.push_back(what);
  };
  auto wrong = [&](const std::string& what) {
    if (stats->errors.size() < 10) stats->errors.push_back(what);
  };
  auto call = [&](const std::string& body, std::string* payload,
                  double* ms) {
    std::string reply;
    ++stats->attempted;
    const auto start = Clock::now();
    const bool sent = send(body, &reply);
    *ms = SecondsSince(start) * 1e3;
    if (!sent) return false;
    return ReplyOk(reply, payload);
  };
  std::string payload;
  double ms = 0;
  for (int b = 0; b < plan.batches; ++b) {
    if (!call("INGEST\n" + inputs.payloads[b], &payload, &ms)) {
      fail("INGEST of batch " + std::to_string(b) + " failed: " + payload);
      continue;
    }
    long long id = -1;
    int trees = -1;
    if (std::sscanf(payload.c_str(), "id=%lld trees=%d", &id, &trees) != 2 ||
        trees != plan.batch_size) {
      wrong("INGEST reply '" + payload + "'");
      continue;
    }
    ids[b] = id;
    model->Apply(inputs.tallies[b], +1);
    stats->ingest_ms.push_back(ms);
    stats->ingest_s += ms / 1e3;
    stats->trees_acked += trees;
    stats->payload_bytes += static_cast<int64_t>(inputs.payloads[b].size());

    for (int l = 0; l < plan.listings; ++l) {
      if (!call("QUERY frequent-pairs", &payload, &ms)) {
        fail("QUERY frequent-pairs failed");
        continue;
      }
      stats->listing_ms.push_back(ms);
      if (l > 0 && payload == listing) continue;  // same bytes, already checked
      listing.swap(payload);
      std::string why;
      if (!model->CheckListing(inputs.names, listing, &rows, &why)) {
        wrong("listing after batch " + std::to_string(b) + ": " + why);
      }
    }
    // Pairs come from the latest listing; while it is empty the calls
    // are owed and made up later, so every session makes the same
    // number of support calls.
    owed_supports += plan.supports;
    for (; owed_supports > 0 && !rows.empty(); --owed_supports) {
      const std::string_view row = rows[rng.Uniform(rows.size())];
      const std::vector<std::string> f = SplitOn(std::string(row), ',');
      if (!call("QUERY support " + f[0] + " " + f[1] + " " + f[2], &payload, &ms)) {
        fail("QUERY support failed");
        continue;
      }
      stats->support_ms.push_back(ms);
      std::string why;
      if (!model->CheckSupport(inputs.names, row, payload, &why)) wrong(why);
    }
    if ((b + 1) % 4 == 0 && ids[b - 2] >= 0) {
      if (!call("RETRACT " + std::to_string(ids[b - 2]), &payload, &ms)) {
        fail("RETRACT failed: " + payload);
      } else {
        model->Apply(inputs.tallies[b - 2], -1);
      }
    }
    if (b == plan.batches / 2 - 1 && !call("COMPACT", &payload, &ms)) {
      fail("COMPACT failed: " + payload);
    }
  }
  if (owed_supports > 0) wrong("no listing ever had a row to query");
}

int RunSession(int argc, char** argv) {
  SessionPlan plan;
  plan.batches = static_cast<int>(IntArg(argc, argv, "batches", plan.batches));
  plan.batch_size = static_cast<int>(IntArg(argc, argv, "batch-size", plan.batch_size));
  plan.listings = static_cast<int>(IntArg(argc, argv, "listings", plan.listings));
  plan.supports = static_cast<int>(IntArg(argc, argv, "supports", plan.supports));
  plan.seed = static_cast<uint64_t>(IntArg(argc, argv, "seed", 1));
  const std::string daemon = Arg(argc, argv, "daemon");
  const std::string work = Arg(argc, argv, "work");
  std::string forest;
  std::string error;
  SessionInputs inputs;
  if (!ReadFile(Arg(argc, argv, "forest"), &forest) ||
      !BuildSessionInputs(forest, plan, &inputs, &error)) {
    std::fprintf(stderr, "session: cannot build inputs: %s\n", error.c_str());
    return 1;
  }
  const std::string wal = work + "/wal";
  const std::string sock = work + "/d.sock";
  const std::vector<std::string> serve = {
      daemon, "serve", "--wal=" + wal, "--socket=" + sock, "--maxdist=1.5",
      "--minsup=2", "--minoccur=1"};

  // One session per "run" line on stdin, each on a fresh WAL and
  // followed by a restart over it; one JSON line per session. The
  // inputs and their oracle tallies are built once per process.
  for (std::string command; std::getline(std::cin, command);) {
    if (command != "run") continue;
    std::filesystem::remove_all(work);
    std::filesystem::create_directories(work);
    SessionStats stats;
    SessionModel model;
    int64_t rss_kb = 0;
    {
      Daemon d(serve, work + "/daemon.log");
      const int fd = d.Connect(sock, 60.0);
      std::string reply;
      std::string payload;
      if (fd < 0 || !Exchange(fd, "HEALTH", &reply) || !ReplyOk(reply, &payload)) {
        std::fprintf(stderr, "session: daemon did not come up\n");
        if (fd >= 0) ::close(fd);
        return 1;
      }
      DriveSession(plan, inputs,
                   [fd](const std::string& body, std::string* out) {
                     return Exchange(fd, body, out);
                   },
                   &stats, &model);
      ::close(fd);
      rss_kb = d.Stop();
    }

    // Restarts over the WAL the session left: spawn to first correct
    // listing, a few times, as one restart is a single short sample.
    std::vector<double> recover_s;
    for (int r = 0; r < kRestarts; ++r) {
      const auto start = Clock::now();
      Daemon d(serve, work + "/daemon.log");
      const int fd = d.Connect(sock, 60.0);
      std::string reply;
      std::string payload;
      std::vector<std::string_view> rows;
      std::string why;
      ++stats.attempted;
      if (fd < 0 || !Exchange(fd, "QUERY frequent-pairs", &reply) ||
          !ReplyOk(reply, &payload)) {
        ++stats.failed;
        stats.failures.push_back("restart over the WAL did not answer");
      } else if (!model.CheckListing(inputs.names, payload, &rows, &why)) {
        stats.errors.push_back("listing after restart: " + why);
      }
      recover_s.push_back(SecondsSince(start));
      if (fd >= 0) ::close(fd);
      rss_kb = std::max(rss_kb, d.Stop());
    }
    std::filesystem::remove_all(work);

    JsonObject json;
    json.List("ingest_ms", stats.ingest_ms);
    json.List("support_ms", stats.support_ms);
    json.List("listing_ms", stats.listing_ms);
    json.Num("ingest_trees_per_s", stats.trees_acked / stats.ingest_s);
    json.List("recover_s", recover_s);
    json.Num("peak_rss_kb", static_cast<double>(rss_kb));
    json.Num("attempted", static_cast<double>(stats.attempted));
    json.Num("failed", static_cast<double>(stats.failed));
    json.Bool("correct", stats.errors.empty());
    std::string joined;
    for (const std::string& e : stats.errors) joined += e + "; ";
    for (const std::string& e : stats.failures) joined += "failed: " + e + "; ";
    json.Str("errors", joined);
    std::printf("%s\n", json.Render().c_str());
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace perfbench
