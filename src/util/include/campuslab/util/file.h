// Write-then-rename, the one way a durable file (a CLSEG02 segment
// spill, the CLMRG01 registry) is replaced.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>

#include "campuslab/util/result.h"

namespace campuslab::util {

/// Write `bytes` to `path` + ".tmp", then rename it over `path`: a crash
/// mid-write leaves a stale .tmp, never a torn file a reader could
/// mistake for data. Every failure removes the .tmp and returns
/// `io_code`.
inline Status write_file_atomically(const std::string& path,
                                    std::span<const std::uint8_t> bytes,
                                    const char* io_code) {
  const std::string tmp = path + ".tmp";
  std::error_code ec;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Error::make(io_code, "cannot create " + tmp);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::filesystem::remove(tmp, ec);
      return Error::make(io_code, "short write to " + tmp);
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return Error::make(io_code, "cannot rename " + tmp + " -> " + path);
  }
  return Status::success();
}

}  // namespace campuslab::util
