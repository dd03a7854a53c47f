#include "core/catalog.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "core/serialize.h"
#include "util/safe_io.h"

namespace pathest {

namespace {

// Binary-loader errors localize themselves as "section <name>: ..."; pull
// the section out so a CatalogLoadReport can aggregate by section without
// the caller string-matching.
std::string ExtractSectionFromError(const std::string& message) {
  constexpr const char* kPrefix = "section ";
  if (message.rfind(kPrefix, 0) != 0) return "";
  const size_t start = std::char_traits<char>::length(kPrefix);
  const size_t colon = message.find(':', start);
  if (colon == std::string::npos) return "";
  return message.substr(start, colon - start);
}

}  // namespace

CatalogLoadFailure MakeCatalogLoadFailure(std::string path, Status status) {
  std::string section = ExtractSectionFromError(status.message());
  return CatalogLoadFailure{std::move(path), std::move(section),
                            std::move(status)};
}

Result<std::vector<std::string>> ListCatalogEntryPaths(
    const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return Status::NotFound("catalog directory not found: " + dir);
  }
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IOError("cannot read catalog directory '" + dir +
                           "': " + ec.message());
  }
  std::vector<std::string> out;
  for (const auto& entry : it) {
    if (entry.is_regular_file(ec) && entry.path().extension() == ".stats") {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<CatalogLoadReport> VerifyCatalogDir(const std::string& dir) {
  auto entries = ListCatalogEntryPaths(dir);
  if (!entries.ok()) return entries.status();
  CatalogLoadReport report;
  for (const std::string& path : *entries) {
    // One read: the format reported is that of the bytes decoded, even if
    // the file is replaced (atomic-rename publish) in between.
    std::string bytes;
    Status read = ReadFileToString(path, &bytes);
    if (!read.ok()) {
      report.failures.push_back(
          MakeCatalogLoadFailure(path, std::move(read)));
      continue;
    }
    auto loaded = DecodeCatalog(bytes);
    if (!loaded.ok()) {
      report.failures.push_back(MakeCatalogLoadFailure(path, loaded.status()));
      continue;
    }
    const std::string name = std::filesystem::path(path).stem().string();
    uint32_t version = 0;
    const CatalogFormat format = SniffCatalogFormat(bytes, &version);
    report.loaded.push_back(name);
    // A v2 entry that loaded IS aligned: the v2 parser rejects any
    // section offset off a 64-byte boundary at every verify tier.
    report.entries.push_back(CatalogEntryInfo{
        name, CatalogFormatName(format), format == CatalogFormat::kBinaryV2,
        version});
  }
  return report;
}

std::string JsonEscape(const std::string& s) {
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
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string CatalogLoadReportToJson(const CatalogLoadReport& report,
                                    const std::string& dir) {
  std::string out = "{\"dir\":\"" + JsonEscape(dir) + "\"";
  out += ",\"ok\":" + std::to_string(report.loaded.size());
  out += ",\"corrupt\":" + std::to_string(report.failures.size());
  out += ",\"fully_healthy\":";
  out += report.fully_healthy() ? "true" : "false";
  out += ",\"loaded\":[";
  for (size_t i = 0; i < report.loaded.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + JsonEscape(report.loaded[i]) + '"';
  }
  out += "],\"entries\":[";
  for (size_t i = 0; i < report.entries.size(); ++i) {
    const CatalogEntryInfo& e = report.entries[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"" + JsonEscape(e.name) + "\"";
    out += ",\"format\":\"" + JsonEscape(e.format) + "\"";
    out += ",\"aligned\":";
    out += e.aligned ? "true" : "false";
    out += ",\"version\":" + std::to_string(e.version);
    out += "}";
  }
  out += "],\"failures\":[";
  for (size_t i = 0; i < report.failures.size(); ++i) {
    const CatalogLoadFailure& f = report.failures[i];
    if (i > 0) out += ',';
    out += "{\"path\":\"" + JsonEscape(f.path) + "\"";
    out += ",\"section\":\"" + JsonEscape(f.section) + "\"";
    out += ",\"code\":\"";
    out += StatusCodeToString(f.status.code());
    out += "\",\"error\":\"" + JsonEscape(f.status.message()) + "\"}";
  }
  out += "]}";
  return out;
}

}  // namespace pathest
