#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace trkx {

/// Provenance stamp for every performance artifact this process emits.
///
/// A RunManifest answers "what exactly produced this number?": the git
/// revision and build configuration the binary was compiled from, the
/// hardware and threading environment it ran on, and the run
/// configuration fingerprint (the same hash checkpoint resume validates
/// against, see checkpoint_fingerprint). The flight recorder embeds it in
///
///   * the metrics JSON dump            ("manifest": {...})
///   * the Chrome trace export          ("metadata": {"manifest": {...}})
///   * the time-series JSONL stream     (first line)
///
/// so any two runs can be compared knowing whether code, config, or
/// machine changed between them.
struct RunManifest {
  std::string schema = "trkx-manifest-v1";
  std::string tool;        ///< binary / bench name (argv[0] basename)
  std::string git_sha;     ///< TRKX_GIT_SHA env override > compile-time
  std::string build_type;  ///< CMAKE_BUILD_TYPE baked in at compile time
  std::string compiler;    ///< __VERSION__ of the building compiler
  std::string hostname;
  int hardware_threads = 0;  ///< std::thread::hardware_concurrency
  int omp_max_threads = 0;   ///< omp_get_max_threads at collect time
  int tracing_compiled = 0;  ///< TRKX_TRACING gate state of this binary
  std::uint64_t unix_time_s = 0;          ///< collection wall-clock time
  std::uint64_t config_fingerprint = 0;   ///< 0 = not applicable
  std::string extra;  ///< free-form "key=value,..." context (optional)

  /// Snapshot the environment now. `tool` defaults from the last
  /// set_run_tool() call (or "trkx" when unset).
  static RunManifest collect(const std::string& tool = "");

  /// Serialise as a JSON object (no trailing newline).
  void write_json(std::ostream& os) const;
  std::string to_json() const;
};

/// Process-global manifest context: the tool name and config fingerprint
/// that RunManifest::collect() picks up. Set once near main() (ObsExport
/// does the tool name automatically); fingerprint is stamped by training
/// entry points that know their GnnTrainConfig.
void set_run_tool(const std::string& tool);
void set_run_fingerprint(std::uint64_t fingerprint);
const std::string& run_tool();
std::uint64_t run_fingerprint();

}  // namespace trkx
