// perfbench: the repository benchmark binary.
//
//   perfbench --workload <queue|skiplist-read|skiplist-write|sim>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--fault duplicate|lose]
//
// Human-readable progress goes to stdout; the last line is one JSON object
// with every metric the run measured (end-to-end metrics without --trace,
// per-layer metrics with it), the output-check tally and the host
// fingerprint. perfbench/run.py builds this binary and turns that line into
// the benchmark's result.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<queue|skiplist-read|skiplist-write|sim> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--fault duplicate|lose]\n");
  return 2;
}

bool is_runtime_workload(const std::string& w) {
  return w == "queue" || w == "skiplist-read" || w == "skiplist-write";
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      opts.out_dir = value;
    } else if (flag == "--fault") {
      opts.fault = value;
    } else {
      return usage();
    }
  }
  if (!(opts.seconds > 0.0) ||
      (!is_runtime_workload(opts.workload) && opts.workload != "sim") ||
      (!opts.fault.empty() &&
       (opts.workload != "queue" ||
        (opts.fault != "duplicate" && opts.fault != "lose")))) {
    return usage();
  }

  const std::string fingerprint = fingerprint_json(opts.seed);
  std::printf("fingerprint: %s\n", fingerprint.c_str());
  Result r;
  if (opts.workload == "sim") {
    r = run_sim(opts);
  } else {
    // Vault cores take CPUs 0..kVaults-1; the clients the next ones.
    ClientPool pool(kClients, kVaults);
    if (opts.workload == "queue") {
      r = run_queue(pool, opts);
    } else {
      r = run_skiplist(pool, opts,
                       opts.workload == "skiplist-read" ? 0.9 : 0.0);
    }
  }
  if (opts.trace) {
    run_layer_probes(opts, r);
    if (is_runtime_workload(opts.workload)) {
      mark_not_exercised(
          r.metrics, {"sim.host_ns_per_op", "sim.queue.rejections",
                      "sim.queue.segments_created", "sim.queue.enq_batches",
                      "model.queue.err_pct", "model.skiplist.err_pct"});
    } else {
      mark_not_exercised(
          r.metrics,
          {"runtime.messages_per_op", "runtime.drain_batch_mean",
           "runtime.vault_busy_share", "runtime.send_full_spins_per_op",
           "phase.issue_ns", "phase.combiner_wait_ns",
           "phase.request_flight_ns", "phase.mailbox_queue_ns",
           "phase.vault_service_ns", "phase.response_flight_ns",
           "phase.cpu_receive_ns", "phase.coverage_pct",
           "core.queue.rejections_per_op",
           "core.queue.segment_handoffs_per_kop",
           "core.queue.empty_dequeue_share", "core.skiplist.vault_imbalance",
           "baselines.native_ops_s", "baselines.pim_over_native"});
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s, \"fingerprint\": %s}\n",
              r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.metrics.to_json().c_str(), fingerprint.c_str());
  return 0;
}
