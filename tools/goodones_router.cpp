// goodones_router — the mesh front end, runnable.
//
// Consistent-hashes entity names across backend goodonesd shards and
// forwards Score frames byte-for-byte to the owning shard (see
// serve/router.hpp and docs/MESH.md). Speaks the same wire protocol as the
// daemon, so goodonesd_client works unchanged against it.
//
//   goodones_router --listen tcp:127.0.0.1:7400
//       --backend shard-a=tcp:127.0.0.1:7401
//       --backend shard-b=tcp:127.0.0.1:7402
//       [--vnodes 128] [--health-interval 500] [--pool 4]
//
// Backends are NAME=ENDPOINT: the name is the shard's ring identity (it
// survives the shard restarting or moving ports), the endpoint is where it
// listens right now. Drain a shard out of the ring with:
//   goodonesd_client tcp:127.0.0.1:7400 drain shard-b
//
// Exit status: 2 for a bad command line (a malformed flag value prints
// "goodones_router: <flag>: <message>"), 1 when start-up fails, 0 after a
// clean shutdown.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "serve/router.hpp"

#include "parse_number.hpp"

using namespace goodones;

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --listen ENDPOINT --backend NAME=ENDPOINT [--backend ...]\n"
               "          [--vnodes N] [--health-interval MS] [--health-timeout MS] "
               "[--pool N]\n"
               "ENDPOINT: unix:/path/to.sock or tcp:host:port (port 0 = ephemeral)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  serve::RouterConfig config;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (arg == "--listen") {
        config.listen = common::Endpoint::parse(next());
      } else if (arg == "--backend") {
        const std::string spec = next();
        const std::size_t eq = spec.find('=');
        if (eq == std::string::npos || eq == 0) {
          std::cerr << "--backend wants NAME=ENDPOINT, got '" << spec << "'\n";
          return 2;
        }
        serve::RouterBackendSpec backend;
        backend.name = spec.substr(0, eq);
        backend.endpoint = common::Endpoint::parse(spec.substr(eq + 1));
        config.backends.push_back(std::move(backend));
      } else if (arg == "--vnodes") {
        config.vnodes = tools::parse_unsigned<std::size_t>(next());
      } else if (arg == "--health-interval") {
        config.health_interval_ms = tools::parse_unsigned<int>(next());
      } else if (arg == "--health-timeout") {
        config.health_timeout_ms = tools::parse_unsigned<int>(next());
      } else if (arg == "--pool") {
        config.pool_size = tools::parse_unsigned<std::size_t>(next());
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception& error) {
      std::cerr << "goodones_router: " << arg << ": " << error.what() << "\n";
      return 2;
    }
  }
  if (config.listen.empty() || config.backends.empty()) return usage(argv[0]);

  try {
    serve::Router router(std::move(config));
    router.start();
    std::cout << "goodones_router: listening on " << router.endpoint().to_string()
              << ", shards:";
    for (const serve::ShardStatus& shard : router.shards()) {
      std::cout << " " << shard.name << "=" << shard.endpoint.to_string();
    }
    std::cout << "\nstop with: goodonesd_client " << router.endpoint().to_string()
              << " shutdown\n";
    router.wait();
    std::cout << "goodones_router: shut down cleanly\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "goodones_router: " << error.what() << "\n";
    return 1;
  }
}
