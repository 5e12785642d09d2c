#include "src/core/serialize.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/forecast/registry.h"

namespace femux {
namespace {

constexpr char kModelMagic[] = "femux-model-v1";
constexpr char kTableMagic[] = "femux-table-v1";
constexpr char kDaemonMagic[] = "femux-daemon-v1";

void WriteVector(std::ostream& out, const std::vector<double>& v) {
  out << v.size();
  for (double x : v) {
    out << ' ' << x;
  }
  out << '\n';
}

bool ReadVector(std::istream& in, std::vector<double>* v) {
  std::size_t n = 0;
  if (!(in >> n) || n > (1u << 28)) {
    return false;
  }
  v->resize(n);
  for (double& x : *v) {
    if (!(in >> x)) {
      return false;
    }
  }
  return true;
}

void WriteIntVector(std::ostream& out, const std::vector<int>& v) {
  out << v.size();
  for (int x : v) {
    out << ' ' << x;
  }
  out << '\n';
}

bool ReadIntVector(std::istream& in, std::vector<int>* v) {
  std::size_t n = 0;
  if (!(in >> n) || n > (1u << 28)) {
    return false;
  }
  v->resize(n);
  for (int& x : *v) {
    if (!(in >> x)) {
      return false;
    }
  }
  return true;
}

// Defined in the daemon-checkpoint section below; shared with the model
// format's learned-state tokens.
std::string EncodeToken(const std::string& text);
bool DecodeToken(std::string_view token, std::string* out);

}  // namespace

void SaveModel(const FemuxModel& model, std::ostream& out) {
  out.precision(17);
  out << kModelMagic << '\n';
  out << model.forecaster_names.size() << '\n';
  for (const std::string& name : model.forecaster_names) {
    out << name << '\n';
  }
  out << model.refit_interval << ' ' << model.block_minutes << ' '
      << model.default_forecaster << ' ' << model.default_margin << '\n';
  WriteIntVector(out, [&] {
    std::vector<int> features;
    for (Feature f : model.features) {
      features.push_back(static_cast<int>(f));
    }
    return features;
  }());
  WriteVector(out, model.margins);
  out << static_cast<int>(model.rum.kind()) << ' ' << model.rum.w1() << ' '
      << model.rum.w2() << ' ' << model.rum.label() << '\n';
  WriteVector(out, model.scaler.means());
  WriteVector(out, model.scaler.stddevs());
  out << model.kmeans.cluster_count() << '\n';
  for (const auto& centroid : model.kmeans.centroids()) {
    WriteVector(out, centroid);
  }
  WriteIntVector(out, model.cluster_to_forecaster);
  WriteIntVector(out, model.cluster_to_margin);
  // Optional trailing section (absent in models trained before learned
  // forecasters existed; LoadModel tolerates that): per-cluster opaque
  // learned state, one escaped token per line ("%e" = empty).
  if (!model.cluster_learned_state.empty()) {
    out << "learned " << model.cluster_learned_state.size() << '\n';
    for (const std::string& blob : model.cluster_learned_state) {
      out << EncodeToken(blob) << '\n';
    }
  }
}

bool LoadModel(std::istream& in, FemuxModel* model) {
  std::string magic;
  if (!(in >> magic) || magic != kModelMagic) {
    return false;
  }
  // Model files are outside input: every forecaster index the model can
  // hand out must name a forecaster the registry builds.
  std::size_t names = 0;
  if (!(in >> names) || names == 0 || names > 1024) {
    return false;
  }
  model->forecaster_names.resize(names);
  for (std::string& name : model->forecaster_names) {
    if (!(in >> name) || MakeForecasterByName(name) == nullptr) {
      return false;
    }
  }
  if (!(in >> model->refit_interval >> model->block_minutes >>
        model->default_forecaster >> model->default_margin) ||
      model->default_forecaster < 0 ||
      static_cast<std::size_t>(model->default_forecaster) >= names) {
    return false;
  }
  std::vector<int> feature_ints;
  if (!ReadIntVector(in, &feature_ints)) {
    return false;
  }
  model->features.clear();
  for (int f : feature_ints) {
    model->features.push_back(static_cast<Feature>(f));
  }
  if (!ReadVector(in, &model->margins) ||
      (!model->margins.empty() &&
       (model->default_margin < 0 ||
        static_cast<std::size_t>(model->default_margin) >= model->margins.size()))) {
    return false;
  }
  int rum_kind = 0;
  double w1 = 0.0;
  double w2 = 0.0;
  std::string label;
  if (!(in >> rum_kind >> w1 >> w2 >> label)) {
    return false;
  }
  model->rum = Rum(static_cast<RumKind>(rum_kind), w1, w2, label);
  std::vector<double> means;
  std::vector<double> stddevs;
  if (!ReadVector(in, &means) || !ReadVector(in, &stddevs)) {
    return false;
  }
  model->scaler.Set(std::move(means), std::move(stddevs));
  std::size_t clusters = 0;
  if (!(in >> clusters) || clusters > 4096) {
    return false;
  }
  std::vector<std::vector<double>> centroids(clusters);
  for (auto& centroid : centroids) {
    if (!ReadVector(in, &centroid)) {
      return false;
    }
  }
  model->kmeans.SetCentroids(std::move(centroids));
  if (!ReadIntVector(in, &model->cluster_to_forecaster) ||
      !ReadIntVector(in, &model->cluster_to_margin)) {
    return false;
  }
  model->cluster_learned_state.clear();
  std::string tag;
  if (in >> tag) {
    if (tag != "learned") {
      return false;
    }
    std::size_t learned = 0;
    if (!(in >> learned) || learned > 4096) {
      return false;
    }
    model->cluster_learned_state.resize(learned);
    for (std::string& blob : model->cluster_learned_state) {
      std::string token;
      if (!(in >> token) || !DecodeToken(token, &blob)) {
        return false;
      }
    }
  }
  model->classifier = ClassifierKind::kKMeans;
  return true;
}

void SaveBlockTable(const BlockTable& table, std::ostream& out) {
  out.precision(17);
  out << kTableMagic << '\n';
  out << table.rum.size() << '\n';
  for (std::size_t a = 0; a < table.rum.size(); ++a) {
    out << table.rum[a].size() << '\n';
    for (std::size_t b = 0; b < table.rum[a].size(); ++b) {
      WriteVector(out, table.rum[a][b]);
      WriteVector(out, table.features[a][b]);
    }
  }
}

bool LoadBlockTable(std::istream& in, BlockTable* table) {
  std::string magic;
  if (!(in >> magic) || magic != kTableMagic) {
    return false;
  }
  std::size_t apps = 0;
  if (!(in >> apps) || apps > (1u << 24)) {
    return false;
  }
  table->rum.assign(apps, {});
  table->features.assign(apps, {});
  for (std::size_t a = 0; a < apps; ++a) {
    std::size_t blocks = 0;
    if (!(in >> blocks) || blocks > (1u << 24)) {
      return false;
    }
    table->rum[a].resize(blocks);
    table->features[a].resize(blocks);
    for (std::size_t b = 0; b < blocks; ++b) {
      if (!ReadVector(in, &table->rum[a][b]) ||
          !ReadVector(in, &table->features[a][b])) {
        return false;
      }
    }
  }
  return true;
}

bool SaveModelFile(const FemuxModel& model, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  SaveModel(model, out);
  return out.good();
}

bool LoadModelFile(const std::string& path, FemuxModel* model) {
  std::ifstream in(path);
  return in && LoadModel(in, model);
}

bool SaveBlockTableFile(const BlockTable& table, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  SaveBlockTable(table, out);
  return out.good();
}

bool LoadBlockTableFile(const std::string& path, BlockTable* table) {
  std::ifstream in(path);
  return in && LoadBlockTable(in, table);
}

// ---- Daemon checkpoints ----
//
// One self-validating line per record: space-separated fields followed by a
// fixed-width (16 hex digit) FNV-1a-64 checksum of everything before it,
// terminated by '\n'. Truncation at any byte either removes whole lines or
// damages the last one — a damaged line fails framing (missing newline),
// width (checksum shorter than 16 digits), or the checksum itself, so the
// loader never admits a partial record.

namespace {

std::uint64_t Fnv1a64(std::string_view text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string ChecksumHex(std::string_view body) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(body)));
  return std::string(buffer, 16);
}

// App ids are caller-supplied strings; escape the field separators (and the
// escape character) so any id round-trips through the line format. An empty
// string is encoded as "%e" to keep every field non-empty.
std::string EncodeToken(const std::string& text) {
  if (text.empty()) {
    return "%e";
  }
  std::string out;
  out.reserve(text.size());
  for (unsigned char c : text) {
    if (c == '%' || c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      char buffer[4];
      std::snprintf(buffer, sizeof(buffer), "%%%02X", c);
      out += buffer;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out;
}

bool DecodeToken(std::string_view token, std::string* out) {
  if (token == "%e") {
    out->clear();
    return true;
  }
  out->clear();
  out->reserve(token.size());
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      *out += token[i];
      continue;
    }
    if (i + 2 >= token.size()) {
      return false;
    }
    unsigned value = 0;
    const auto result =
        std::from_chars(token.data() + i + 1, token.data() + i + 3, value, 16);
    if (result.ec != std::errc() || result.ptr != token.data() + i + 3) {
      return false;
    }
    *out += static_cast<char>(value);
    i += 2;
  }
  return true;
}

std::vector<std::string_view> SplitFields(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t space = line.find(' ', pos);
    const std::size_t end = space == std::string_view::npos ? line.size() : space;
    if (end > pos) {
      fields.push_back(line.substr(pos, end - pos));
    }
    pos = end + 1;
  }
  return fields;
}

template <typename T>
bool ParseField(std::string_view text, T* out) {
  const auto result = std::from_chars(text.data(), text.data() + text.size(), *out);
  return result.ec == std::errc() && result.ptr == text.data() + text.size();
}

bool ParseDoubleField(std::string_view text, double* out) {
  const auto result = std::from_chars(text.data(), text.data() + text.size(), *out);
  return result.ec == std::errc() && result.ptr == text.data() + text.size();
}

// Appends `value` in its shortest round-trip decimal form.
template <typename T>
void AppendNumber(std::string* out, T value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, result.ptr);
}

void WriteChecksummedLine(std::ostream& out, const std::string& body) {
  out << body << ' ' << ChecksumHex(body) << '\n';
}

// A line is intact iff it carries its checksum (last space-separated token,
// exactly 16 hex chars) and the checksum matches the body before it.
bool VerifyChecksummedLine(const std::string& line, std::string_view* body) {
  if (line.size() < 18) {  // Non-empty body + ' ' + 16-digit checksum.
    return false;
  }
  const std::size_t split = line.size() - 17;
  if (line[split] != ' ') {
    return false;
  }
  const std::string_view checksum(line.data() + split + 1, 16);
  const std::string_view content(line.data(), split);
  if (ChecksumHex(content) != checksum) {
    return false;
  }
  *body = content;
  return true;
}

// Reads one line and reports whether it was properly terminated: getline
// sets eofbit when the file ends without a final '\n', which is exactly a
// truncated record.
bool GetTerminatedLine(std::istream& in, std::string* line) {
  if (!std::getline(in, *line)) {
    return false;
  }
  return !in.eof();
}

bool ParseDaemonAppRecord(std::string_view body, DaemonAppCheckpoint* app) {
  const std::vector<std::string_view> fields = SplitFields(body);
  // app id forecaster observed last_epoch has_epoch has_last_good last_good
  // quarantined_until consecutive_faults ring_n ring... [forecaster_state]
  // The trailing state token is optional (learned forecasters only), so
  // records written before the field existed still parse.
  constexpr std::size_t kFixed = 11;
  if (fields.size() < kFixed || fields[0] != "app") {
    return false;
  }
  DaemonAppCheckpoint out;
  int has_epoch = 0;
  int has_last_good = 0;
  std::size_t ring_n = 0;
  if (!DecodeToken(fields[1], &out.id) || !DecodeToken(fields[2], &out.forecaster) ||
      !ParseField(fields[3], &out.observed) || !ParseField(fields[4], &out.last_epoch) ||
      !ParseField(fields[5], &has_epoch) || !ParseField(fields[6], &has_last_good) ||
      !ParseDoubleField(fields[7], &out.last_good) ||
      !ParseField(fields[8], &out.quarantined_until) ||
      !ParseField(fields[9], &out.consecutive_faults) ||
      !ParseField(fields[10], &ring_n)) {
    return false;
  }
  // No writer keeps more samples than it observed.
  if ((has_epoch != 0 && has_epoch != 1) || (has_last_good != 0 && has_last_good != 1) ||
      !std::isfinite(out.last_good) || ring_n > (1u << 26) || out.observed < ring_n ||
      (fields.size() != kFixed + ring_n && fields.size() != kFixed + ring_n + 1)) {
    return false;
  }
  out.has_epoch = has_epoch == 1;
  out.has_last_good = has_last_good == 1;
  out.ring.resize(ring_n);
  for (std::size_t i = 0; i < ring_n; ++i) {
    // The samples a push would accept: finite and non-negative.
    if (!ParseDoubleField(fields[kFixed + i], &out.ring[i]) ||
        !std::isfinite(out.ring[i]) || out.ring[i] < 0.0) {
      return false;
    }
  }
  if (fields.size() == kFixed + ring_n + 1 &&
      !DecodeToken(fields[kFixed + ring_n], &out.forecaster_state)) {
    return false;
  }
  *app = std::move(out);
  return true;
}

}  // namespace

void SaveDaemonCheckpoint(const DaemonCheckpoint& checkpoint, std::ostream& out) {
  // One reused line buffer; numbers are appended with std::to_chars, whose
  // shortest round-trip form ParseDoubleField reads back to the same bits.
  std::string line;
  const auto field = [&line](auto value) {
    line += ' ';
    AppendNumber(&line, value);
  };
  line = kDaemonMagic;
  field(checkpoint.tick);
  field(checkpoint.apps.size());
  WriteChecksummedLine(out, line);
  for (const DaemonAppCheckpoint& app : checkpoint.apps) {
    line.assign("app ");
    line += EncodeToken(app.id);
    line += ' ';
    line += EncodeToken(app.forecaster);
    field(app.observed);
    field(app.last_epoch);
    field(int{app.has_epoch});
    field(int{app.has_last_good});
    field(app.last_good);
    field(app.quarantined_until);
    field(app.consecutive_faults);
    field(app.ring.size());
    for (double v : app.ring) {
      field(v);
    }
    if (!app.forecaster_state.empty()) {
      line += ' ';
      line += EncodeToken(app.forecaster_state);
    }
    WriteChecksummedLine(out, line);
  }
}

bool LoadDaemonCheckpoint(std::istream& in, DaemonCheckpoint* out) {
  out->tick = 0;
  out->apps.clear();
  std::string line;
  std::string_view body;
  if (!GetTerminatedLine(in, &line) || !VerifyChecksummedLine(line, &body)) {
    return false;
  }
  const std::vector<std::string_view> header = SplitFields(body);
  std::size_t declared = 0;
  if (header.size() != 3 || header[0] != kDaemonMagic ||
      !ParseField(header[1], &out->tick) || !ParseField(header[2], &declared) ||
      declared > (1u << 24)) {
    out->tick = 0;
    return false;
  }
  out->apps.reserve(declared);
  for (std::size_t i = 0; i < declared; ++i) {
    DaemonAppCheckpoint app;
    if (!GetTerminatedLine(in, &line) || !VerifyChecksummedLine(line, &body) ||
        !ParseDaemonAppRecord(body, &app)) {
      return false;  // Clean prefix: records 0..i-1 are already in *out.
    }
    out->apps.push_back(std::move(app));
  }
  return true;
}

bool SaveDaemonCheckpointFile(const DaemonCheckpoint& checkpoint,
                              const std::string& path, std::size_t* bytes_written,
                              long long truncate_to) {
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return false;
    }
    SaveDaemonCheckpoint(checkpoint, out);
    out.flush();
    if (!out.good()) {
      return false;
    }
  }
  std::error_code ec;
  if (truncate_to >= 0) {
    const auto size = std::filesystem::file_size(tmp_path, ec);
    if (!ec && static_cast<unsigned long long>(truncate_to) < size) {
      std::filesystem::resize_file(tmp_path, static_cast<std::uintmax_t>(truncate_to),
                                   ec);
      if (ec) {
        return false;
      }
    }
  }
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    return false;
  }
  if (bytes_written != nullptr) {
    const auto size = std::filesystem::file_size(path, ec);
    *bytes_written = ec ? 0 : static_cast<std::size_t>(size);
  }
  return true;
}

bool LoadDaemonCheckpointFile(const std::string& path, DaemonCheckpoint* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out->tick = 0;
    out->apps.clear();
    return false;
  }
  return LoadDaemonCheckpoint(in, out);
}

}  // namespace femux
