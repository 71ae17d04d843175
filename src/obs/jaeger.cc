#include "obs/jaeger.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "obs/json.h"

namespace ditto::obs {

namespace {

// ---- small formatting helpers ---------------------------------------

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
parseHexId(const std::string &s)
{
    // Accept up to 32 hex chars: Jaeger emits 128-bit trace ids, and
    // the low 64 bits are unique enough to key a trace group.
    if (s.empty() || s.size() > 32)
        throw std::runtime_error("jaeger: bad hex id \"" + s + "\"");
    const std::size_t low = s.size() > 16 ? s.size() - 16 : 0;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        unsigned d = 0;
        if (c >= '0' && c <= '9')
            d = static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f')
            d = static_cast<unsigned>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            d = static_cast<unsigned>(c - 'A' + 10);
        else
            throw std::runtime_error("jaeger: bad hex id \"" + s +
                                     "\"");
        if (i >= low)
            v = (v << 4) | d;
    }
    return v;
}

std::uint64_t
parseDec(const std::string &s)
{
    if (s.empty())
        throw std::runtime_error("jaeger: empty decimal tag");
    errno = 0;
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(s.c_str(), &end, 10);
    if (errno == ERANGE)
        throw std::runtime_error("jaeger: decimal tag \"" + s +
                                 "\" overflows uint64");
    if (end != s.c_str() + s.size())
        throw std::runtime_error("jaeger: bad decimal tag \"" + s +
                                 "\"");
    return v;
}

void
appendU64(std::string &out, std::uint64_t v)
{
    out += std::to_string(v);
}

void
appendStringTag(std::string &out, const char *key,
                const std::string &value, bool first)
{
    if (!first)
        out += ",";
    out += "{\"key\":";
    appendJsonString(out, key);
    out += ",\"type\":\"string\",\"value\":";
    appendJsonString(out, value);
    out += "}";
}

void
appendIntTag(std::string &out, const char *key, std::uint64_t value,
             bool first)
{
    if (!first)
        out += ",";
    out += "{\"key\":";
    appendJsonString(out, key);
    out += ",\"type\":\"int64\",\"value\":";
    appendU64(out, value);
    out += "}";
}

void
appendReferences(std::string &out, std::uint64_t traceId,
                 std::uint64_t parentSpanId)
{
    out += "\"references\":[";
    if (parentSpanId != 0) {
        out += "{\"refType\":\"CHILD_OF\",\"traceID\":";
        appendJsonString(out, hex16(traceId));
        out += ",\"spanID\":";
        appendJsonString(out, hex16(parentSpanId));
        out += "}";
    }
    out += "]";
}

/** One outcome log entry ({"timestamp":..,"fields":[..]}). */
void
appendOutcomeLog(std::string &out, const trace::OutcomeEvent &ev,
                 std::size_t seq, bool first)
{
    if (!first)
        out += ",";
    out += "{\"timestamp\":";
    appendU64(out, ev.time / 1000);
    out += ",\"fields\":[";
    appendStringTag(out, "event", trace::outcomeKindName(ev.kind),
                    true);
    appendIntTag(out, "ditto.seq", seq, false);
    appendIntTag(out, "ditto.target", ev.target, false);
    appendIntTag(out, "ditto.endpoint", ev.endpoint, false);
    appendIntTag(out, "ditto.attempts", ev.attempts, false);
    appendStringTag(out, "ditto.time_ns", std::to_string(ev.time),
                    false);
    if (!ev.cause.empty())
        appendStringTag(out, "ditto.cause", ev.cause, false);
    out += "]}";
}

struct TraceGroup
{
    std::vector<std::size_t> spans;     //!< indices into tracer.spans()
    std::vector<std::size_t> edges;
    std::vector<std::size_t> outcomes;
};

} // namespace

std::string
exportJaegerJson(const trace::Tracer &tracer)
{
    const auto &spans = tracer.spans();
    const auto &edges = tracer.edges();
    const auto &outcomes = tracer.outcomes();

    std::map<std::uint64_t, TraceGroup> groups;
    for (std::size_t i = 0; i < spans.size(); ++i)
        groups[spans[i].traceId].spans.push_back(i);
    for (std::size_t i = 0; i < edges.size(); ++i)
        groups[edges[i].traceId].edges.push_back(i);
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        groups[outcomes[i].traceId].outcomes.push_back(i);

    // Synthetic span ids (edge spans, outcome carriers) live in the
    // top half of the id space; Tracer ids count up from 1 and never
    // reach it in practice.
    std::uint64_t syntheticId = 0x8000000000000000ull;

    std::string out;
    out.reserve(4096 + 256 * (spans.size() + edges.size()));
    out += "{\"data\":[";
    bool firstTrace = true;
    for (const auto &[traceId, group] : groups) {
        if (!firstTrace)
            out += ",";
        firstTrace = false;

        // Process table: one entry per service seen in this trace,
        // in sorted order.
        std::set<std::string> services;
        for (std::size_t i : group.spans)
            services.insert(spans[i].service);
        for (std::size_t i : group.edges)
            services.insert(edges[i].caller);
        for (std::size_t i : group.outcomes)
            services.insert(outcomes[i].service);
        std::map<std::string, std::string> pid;
        for (const auto &svc : services)
            pid[svc] = std::string("p").append(std::to_string(pid.size() + 1));

        // Each outcome becomes a log on the first sampled server span
        // of its service; leftovers go on a synthetic carrier span.
        std::map<std::string, std::size_t> firstSpanOfService;
        for (std::size_t i : group.spans)
            firstSpanOfService.emplace(spans[i].service, i);
        std::map<std::size_t, std::vector<std::size_t>> logsOnSpan;
        std::map<std::string, std::vector<std::size_t>> orphanLogs;
        for (std::size_t i : group.outcomes) {
            const auto it =
                firstSpanOfService.find(outcomes[i].service);
            if (it != firstSpanOfService.end())
                logsOnSpan[it->second].push_back(i);
            else
                orphanLogs[outcomes[i].service].push_back(i);
        }

        out += "{\"traceID\":";
        appendJsonString(out, hex16(traceId));
        out += ",\"spans\":[";
        bool firstSpan = true;

        for (std::size_t i : group.spans) {
            const trace::Span &s = spans[i];
            if (!firstSpan)
                out += ",";
            firstSpan = false;
            out += "{\"traceID\":";
            appendJsonString(out, hex16(s.traceId));
            out += ",\"spanID\":";
            appendJsonString(out, hex16(s.spanId));
            out += ",\"operationName\":";
            appendJsonString(out,
                             "ep" + std::to_string(s.endpoint));
            out += ",";
            appendReferences(out, s.traceId, s.parentSpanId);
            out += ",\"startTime\":";
            appendU64(out, s.start / 1000);
            out += ",\"duration\":";
            appendU64(out, (s.end - s.start) / 1000);
            out += ",\"processID\":";
            appendJsonString(out, pid[s.service]);
            out += ",\"tags\":[";
            appendStringTag(out, "span.kind", "server", true);
            appendIntTag(out, "ditto.endpoint", s.endpoint, false);
            appendIntTag(out, "ditto.seq", i, false);
            appendStringTag(out, "ditto.start_ns",
                            std::to_string(s.start), false);
            appendStringTag(out, "ditto.end_ns",
                            std::to_string(s.end), false);
            out += "],\"logs\":[";
            bool firstLog = true;
            const auto lit = logsOnSpan.find(i);
            if (lit != logsOnSpan.end()) {
                for (std::size_t oi : lit->second) {
                    appendOutcomeLog(out, outcomes[oi], oi,
                                     firstLog);
                    firstLog = false;
                }
            }
            out += "]}";
        }

        for (std::size_t i : group.edges) {
            const trace::RpcEdge &e = edges[i];
            if (!firstSpan)
                out += ",";
            firstSpan = false;
            out += "{\"traceID\":";
            appendJsonString(out, hex16(e.traceId));
            out += ",\"spanID\":";
            appendJsonString(out, hex16(syntheticId++));
            out += ",\"operationName\":";
            appendJsonString(out,
                             "rpc:ep" + std::to_string(e.endpoint));
            out += ",";
            appendReferences(out, e.traceId, e.parentSpanId);
            out += ",\"startTime\":0,\"duration\":0,\"processID\":";
            appendJsonString(out, pid[e.caller]);
            out += ",\"tags\":[";
            appendStringTag(out, "span.kind", "client", true);
            appendStringTag(out, "peer.service", e.callee, false);
            appendIntTag(out, "ditto.endpoint", e.endpoint, false);
            appendIntTag(out, "ditto.seq", i, false);
            appendIntTag(out, "ditto.request_bytes", e.requestBytes,
                         false);
            appendIntTag(out, "ditto.response_bytes",
                         e.responseBytes, false);
            if (e.deadlineNs != 0)
                appendStringTag(out, "ditto.deadline_ns",
                                std::to_string(e.deadlineNs), false);
            out += "],\"logs\":[]}";
        }

        for (const auto &[svc, logIdx] : orphanLogs) {
            if (!firstSpan)
                out += ",";
            firstSpan = false;
            out += "{\"traceID\":";
            appendJsonString(out, hex16(traceId));
            out += ",\"spanID\":";
            appendJsonString(out, hex16(syntheticId++));
            out += ",\"operationName\":\"outcome\",";
            appendReferences(out, traceId, 0);
            out += ",\"startTime\":0,\"duration\":0,\"processID\":";
            appendJsonString(out, pid[svc]);
            out += ",\"tags\":[";
            appendStringTag(out, "span.kind", "internal", true);
            out += "],\"logs\":[";
            bool firstLog = true;
            for (std::size_t oi : logIdx) {
                appendOutcomeLog(out, outcomes[oi], oi, firstLog);
                firstLog = false;
            }
            out += "]}";
        }

        out += "],\"processes\":{";
        bool firstProc = true;
        for (const auto &[svc, p] : pid) {
            if (!firstProc)
                out += ",";
            firstProc = false;
            appendJsonString(out, p);
            out += ":{\"serviceName\":";
            appendJsonString(out, svc);
            out += "}";
        }
        out += "}}";
    }
    out += "],\"dittoMeta\":{\"sampleRate\":";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", tracer.sampleRate());
    out += buf;
    out += "}}";
    return out;
}

void
writeJaegerJsonFile(const trace::Tracer &tracer,
                    const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        throw std::runtime_error("jaeger: cannot open " + path +
                                 " for writing");
    const std::string doc = exportJaegerJson(tracer);
    os.write(doc.data(),
             static_cast<std::streamsize>(doc.size()));
    if (!os)
        throw std::runtime_error("jaeger: short write to " + path);
}

namespace {

const JsonValue *
findTag(const JsonValue &span, const char *arrayKey,
        const std::string &key)
{
    const JsonValue *tags = span.find(arrayKey);
    if (!tags || !tags->isArray())
        return nullptr;
    for (const JsonValue &tag : tags->items) {
        const JsonValue *k = tag.find("key");
        if (k && k->asString() == key)
            return tag.find("value");
    }
    return nullptr;
}

std::uint64_t
tagU64(const JsonValue &span, const std::string &key)
{
    const JsonValue *v = findTag(span, "tags", key);
    return v ? v->asU64() : 0;
}

/** Decimal-string tag holding a lossless u64 (e.g. ditto.start_ns). */
std::uint64_t
tagU64Str(const JsonValue &span, const std::string &key)
{
    const JsonValue *v = findTag(span, "tags", key);
    return v ? parseDec(v->asString()) : 0;
}

std::string
tagString(const JsonValue &span, const std::string &key)
{
    const JsonValue *v = findTag(span, "tags", key);
    return v ? v->asString() : std::string{};
}

std::uint64_t
parentFromReferences(const JsonValue &span)
{
    const JsonValue *refs = span.find("references");
    if (!refs || !refs->isArray() || refs->items.empty())
        return 0;
    const JsonValue *sid = refs->items.front().find("spanID");
    return sid ? parseHexId(sid->asString()) : 0;
}

/**
 * Convert a microsecond JSON number to nanoseconds. Real Jaeger
 * exporters emit float microseconds ("123.456"); multiplying the
 * rounded double by 1000 loses the low digits, so convert from the
 * raw source literal instead: lossless whenever the value has at
 * most 3 fractional digits and no exponent. Returns false on
 * overflow; *negative is set when the literal is negative (the
 * magnitude is still converted).
 */
bool
microsValueToNanos(const JsonValue &v, std::uint64_t *ns,
                   bool *negative)
{
    *negative = false;
    if (v.kind == JsonValue::Kind::Unsigned) {
        if (v.unsignedValue > UINT64_MAX / 1000)
            return false;
        *ns = v.unsignedValue * 1000;
        return true;
    }
    const std::string &tok = v.str;
    if (v.kind != JsonValue::Kind::Double || tok.empty() ||
        tok.find_first_of("eE") != std::string::npos) {
        // Exponent form (or a programmatic value with no literal):
        // fall back to rounded double math.
        double d = v.asDouble();
        if (d < 0) {
            *negative = true;
            d = -d;
        }
        if (d * 1000.0 > static_cast<double>(UINT64_MAX))
            return false;
        *ns = static_cast<std::uint64_t>(std::llround(d * 1000.0));
        return true;
    }
    std::size_t i = 0;
    if (tok[i] == '-') {
        *negative = true;
        ++i;
    }
    std::uint64_t whole = 0;
    for (; i < tok.size() && tok[i] != '.'; ++i) {
        const auto d = static_cast<std::uint64_t>(tok[i] - '0');
        if (whole > (UINT64_MAX - d) / 10)
            return false;
        whole = whole * 10 + d;
    }
    std::uint64_t frac = 0;   // fractional part scaled to ns (3 digits)
    std::uint64_t scale = 100;
    bool roundUp = false;
    if (i < tok.size() && tok[i] == '.') {
        for (++i; i < tok.size(); ++i) {
            const auto d = static_cast<std::uint64_t>(tok[i] - '0');
            if (scale > 0) {
                frac += d * scale;
                scale /= 10;
            } else if (!roundUp) {
                roundUp = d >= 5;  // round half up on the 4th digit
            }
        }
    }
    if (whole > (UINT64_MAX - frac - 1) / 1000)
        return false;
    *ns = whole * 1000 + frac + (roundUp ? 1 : 0);
    return true;
}

/** Tallies defects; throws named errors unless lenient. */
class Ingest
{
  public:
    Ingest(const ImportOptions &opts, ImportReport &rep)
        : opts_(opts), rep_(rep)
    {
    }

    /** A repairable defect: error in strict mode, tally in lenient. */
    void
    defect(std::uint64_t &counter, const std::string &msg)
    {
        ++counter;
        if (!opts_.lenient)
            throw std::runtime_error(
                "jaeger: " + msg +
                " (re-run with lenient import to repair and count)");
        note(msg);
    }

    /** A non-fatal observation, retained up to maxWarnings. */
    void
    note(const std::string &msg)
    {
        if (rep_.warnings.size() < opts_.maxWarnings)
            rep_.warnings.push_back(msg);
    }

  private:
    const ImportOptions &opts_;
    ImportReport &rep_;
};

/** A foreign span after the first (field-extraction) pass. */
struct RawSpan
{
    std::uint64_t traceId = 0;
    std::uint64_t spanId = 0;
    std::uint64_t parentId = 0;  //!< raw CHILD_OF reference
    std::string service;
    std::string operation;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::uint64_t requestBytes = 0;
    std::uint64_t responseBytes = 0;
    std::string peer;       //!< peer.service (client spans)
    int kind = 0;           //!< 0 server, 1 client, 2 other
    bool skip = false;      //!< lenient-repaired away
};

/**
 * Import one foreign trace entry: extract spans, validate structure,
 * intern endpoints, and emit Tracer spans plus RPC edges (from client
 * spans where present, else derived from server-span parentage).
 */
void
importForeignTrace(const JsonValue &tr,
                   const std::map<std::string, std::string> &pidToService,
                   Ingest &ing, ImportReport &rep,
                   std::map<std::string, std::vector<std::string>>
                       &endpointIdsByService,
                   std::vector<trace::Span> &outSpans,
                   std::vector<trace::RpcEdge> &outEdges)
{
    const JsonValue *spanArr = tr.find("spans");
    if (!spanArr || !spanArr->isArray())
        throw std::runtime_error("jaeger: trace without spans");

    // ---- pass 1: extract fields, catch duplicates ------------------
    std::vector<RawSpan> raw;
    raw.reserve(spanArr->items.size());
    std::unordered_map<std::uint64_t, std::size_t> byId;
    for (const JsonValue &sp : spanArr->items) {
        const JsonValue *tid = sp.find("traceID");
        const JsonValue *sid = sp.find("spanID");
        const JsonValue *pidv = sp.find("processID");
        if (!tid || !sid || !pidv)
            throw std::runtime_error(
                "jaeger: span missing traceID/spanID/processID");
        RawSpan r;
        r.traceId = parseHexId(tid->asString());
        r.spanId = parseHexId(sid->asString());
        r.parentId = parentFromReferences(sp);
        const auto pit = pidToService.find(pidv->asString());
        if (pit == pidToService.end()) {
            ing.defect(rep.unknownProcessSpans,
                       "span " + hex16(r.spanId) +
                           " references unknown processID \"" +
                           pidv->asString() + "\"");
            continue;  // lenient: skip the span entirely
        }
        r.service = pit->second;
        if (const JsonValue *op = sp.find("operationName"))
            r.operation = op->asString();
        const std::string kind = tagString(sp, "span.kind");
        if (kind == "client")
            r.kind = 1;
        else if (kind.empty() || kind == "server")
            r.kind = 0;
        else {
            // internal/producer/consumer: out of scope for topology
            // recovery, but counted so nothing vanishes silently.
            r.kind = 2;
            ++rep.internalSpans;
        }

        // Timestamps: native ns tags when present, else float-us.
        bool negStart = false, negDur = false;
        std::uint64_t durNs = 0;
        if (findTag(sp, "tags", "ditto.start_ns")) {
            r.startNs = tagU64Str(sp, "ditto.start_ns");
            r.endNs = tagU64Str(sp, "ditto.end_ns");
            durNs = r.endNs >= r.startNs ? r.endNs - r.startNs : 0;
        } else {
            const JsonValue *st = sp.find("startTime");
            const JsonValue *du = sp.find("duration");
            if (st && !microsValueToNanos(*st, &r.startNs, &negStart))
                throw std::runtime_error(
                    "jaeger: startTime overflows on span " +
                    hex16(r.spanId));
            if (du && !microsValueToNanos(*du, &durNs, &negDur))
                throw std::runtime_error(
                    "jaeger: duration overflows on span " +
                    hex16(r.spanId));
            if (negStart) {
                ing.defect(rep.negativeDurationSpans,
                           "span " + hex16(r.spanId) +
                               " has negative startTime");
                r.startNs = 0;  // lenient: clamp to epoch
            }
            if (negDur) {
                ing.defect(rep.negativeDurationSpans,
                           "span " + hex16(r.spanId) + " (service \"" +
                               r.service + "\", operation \"" +
                               r.operation +
                               "\") has negative duration");
                durNs = 0;  // lenient: clamp
            }
            r.endNs = r.startNs + durNs;
        }
        if (r.kind == 0 && durNs == 0)
            // Zero-duration server spans poison service-time fitting.
            ing.defect(rep.zeroDurationSpans,
                       "zero-duration span " + hex16(r.spanId) +
                           " (service \"" + r.service +
                           "\", operation \"" + r.operation + "\")");

        if (r.kind == 1) {
            r.peer = tagString(sp, "peer.service");
            r.requestBytes = tagU64(sp, "ditto.request_bytes");
            if (r.requestBytes == 0)
                r.requestBytes =
                    tagU64(sp, "http.request_content_length");
            r.responseBytes = tagU64(sp, "ditto.response_bytes");
            if (r.responseBytes == 0)
                r.responseBytes =
                    tagU64(sp, "http.response_content_length");
        }

        const auto [it, inserted] =
            byId.emplace(r.spanId, raw.size());
        if (!inserted) {
            ing.defect(rep.duplicateSpans,
                       "duplicate spanID " + hex16(r.spanId) +
                           " in trace " + hex16(r.traceId));
            r.skip = true;  // lenient: keep the first occurrence
        }
        raw.push_back(std::move(r));
    }

    // ---- pass 2a: intern server endpoints, emit spans --------------
    // Walks a span's ancestry to the nearest *server* span, hopping
    // over the client span real exporters interpose between caller
    // and callee. Returns 0 (root) for missing parents in lenient
    // mode. kindOfFirstHop reports what the raw parent was.
    const auto resolveServerParent =
        [&](const RawSpan &r, int *kindOfFirstHop) -> std::uint64_t {
        *kindOfFirstHop = -1;  // none
        std::uint64_t p = r.parentId;
        int hops = 0;
        while (p != 0) {
            const auto it = byId.find(p);
            if (it == byId.end()) {
                ing.defect(rep.missingParents,
                           "span " + hex16(r.spanId) + " in trace " +
                               hex16(r.traceId) +
                               " references missing parent " +
                               hex16(p));
                return 0;  // lenient: reparent to root
            }
            const RawSpan &ps = raw[it->second];
            if (*kindOfFirstHop < 0)
                *kindOfFirstHop = ps.kind;
            if (ps.kind == 0)
                return ps.spanId;
            if (++hops > 64)
                throw std::runtime_error(
                    "jaeger: parent chain of span " +
                    hex16(r.spanId) + " in trace " +
                    hex16(r.traceId) + " is cyclic");
            p = ps.parentId;
        }
        return 0;
    };

    struct SeqEdge
    {
        std::size_t seq;  //!< document order
        trace::RpcEdge edge;
    };
    std::vector<SeqEdge> seqEdges;
    std::vector<std::uint32_t> endpointOf(raw.size(), 0);
    // First server child of each client span, for callee resolution.
    std::unordered_map<std::size_t, std::size_t> serverChildOfClient;

    for (std::size_t i = 0; i < raw.size(); ++i) {
        RawSpan &r = raw[i];
        if (r.skip || r.kind != 0)
            continue;
        auto &names = endpointIdsByService[r.service];
        std::uint32_t ep = 0;
        const std::string &opName =
            r.operation.empty() ? std::string("unnamed") : r.operation;
        const auto found =
            std::find(names.begin(), names.end(), opName);
        if (found != names.end()) {
            ep = static_cast<std::uint32_t>(found - names.begin());
        } else {
            ep = static_cast<std::uint32_t>(names.size());
            names.push_back(opName);
        }
        endpointOf[i] = ep;

        int firstHop = -1;
        const std::uint64_t parent = resolveServerParent(r, &firstHop);
        if (firstHop == 1) {
            const auto cit = byId.find(r.parentId);
            if (cit != byId.end())
                serverChildOfClient.emplace(cit->second, i);
        }
        trace::Span s;
        s.traceId = r.traceId;
        s.spanId = r.spanId;
        s.parentSpanId = parent;
        s.service = r.service;
        s.endpoint = ep;
        s.start = r.startNs;
        s.end = r.endNs;
        outSpans.push_back(std::move(s));
        ++rep.foreignSpans;

        // No client span between this span and its server parent:
        // the call edge exists only implicitly, so derive it (byte
        // sizes unknown -> 0, clone synthesis falls back to defaults).
        if (firstHop == 0 && parent != 0) {
            trace::RpcEdge e;
            e.traceId = r.traceId;
            e.parentSpanId = parent;
            e.caller = raw[byId[r.parentId]].service;
            e.callee = r.service;
            e.endpoint = ep;
            seqEdges.push_back({i, std::move(e)});
            ++rep.derivedEdges;
        }
    }

    // ---- pass 2b: client spans become RPC edges --------------------
    for (std::size_t i = 0; i < raw.size(); ++i) {
        RawSpan &r = raw[i];
        if (r.skip || r.kind != 1)
            continue;
        ++rep.clientSpans;
        trace::RpcEdge e;
        e.traceId = r.traceId;
        e.caller = r.service;
        const auto child = serverChildOfClient.find(i);
        if (child != serverChildOfClient.end()) {
            e.callee = raw[child->second].service;
            e.endpoint = endpointOf[child->second];
        } else if (!r.peer.empty()) {
            e.callee = r.peer;
            e.endpoint = 0;
            ing.note("client span " + hex16(r.spanId) +
                     " has no callee server span; trusting "
                     "peer.service \"" +
                     r.peer + "\"");
        } else {
            ing.defect(rep.calleelessClientSpans,
                       "client span " + hex16(r.spanId) +
                           " in trace " + hex16(r.traceId) +
                           " has neither a child server span nor "
                           "peer.service");
            continue;  // lenient: drop the edge
        }
        int firstHop = -1;
        e.parentSpanId = resolveServerParent(r, &firstHop);
        e.requestBytes = static_cast<std::uint32_t>(r.requestBytes);
        e.responseBytes = static_cast<std::uint32_t>(r.responseBytes);
        seqEdges.push_back({i, std::move(e)});
    }

    std::stable_sort(seqEdges.begin(), seqEdges.end(),
                     [](const SeqEdge &a, const SeqEdge &b) {
                         return a.seq < b.seq;
                     });
    for (auto &se : seqEdges)
        outEdges.push_back(std::move(se.edge));
}

/** Native (dittoMeta-marked) import: exact inverse of the exporter. */
void
importNativeSpan(const JsonValue &sp, std::uint64_t traceId,
                 const std::string &service,
                 std::vector<std::pair<std::uint64_t, trace::Span>>
                     &spans,
                 std::vector<std::pair<std::uint64_t, trace::RpcEdge>>
                     &edges)
{
    const std::string kind = tagString(sp, "span.kind");
    if (kind == "server") {
        trace::Span s;
        s.traceId = traceId;
        const JsonValue *sid = sp.find("spanID");
        s.spanId = sid ? parseHexId(sid->asString()) : 0;
        s.parentSpanId = parentFromReferences(sp);
        s.service = service;
        s.endpoint = static_cast<std::uint32_t>(
            tagU64(sp, "ditto.endpoint"));
        s.start = tagU64Str(sp, "ditto.start_ns");
        s.end = tagU64Str(sp, "ditto.end_ns");
        spans.push_back({tagU64(sp, "ditto.seq"), s});
    } else if (kind == "client") {
        trace::RpcEdge e;
        e.traceId = traceId;
        e.parentSpanId = parentFromReferences(sp);
        e.caller = service;
        e.callee = tagString(sp, "peer.service");
        e.endpoint = static_cast<std::uint32_t>(
            tagU64(sp, "ditto.endpoint"));
        e.requestBytes = static_cast<std::uint32_t>(
            tagU64(sp, "ditto.request_bytes"));
        e.responseBytes = static_cast<std::uint32_t>(
            tagU64(sp, "ditto.response_bytes"));
        e.deadlineNs = tagU64Str(sp, "ditto.deadline_ns");
        edges.push_back({tagU64(sp, "ditto.seq"), e});
    }
}

/** Outcome logs may ride on any span kind (native docs). */
void
collectOutcomeLogs(
    const JsonValue &sp, std::uint64_t traceId,
    const std::string &service,
    std::vector<std::pair<std::uint64_t, trace::OutcomeEvent>>
        &outcomes)
{
    const JsonValue *logs = sp.find("logs");
    if (!logs || !logs->isArray())
        return;
    for (const JsonValue &log : logs->items) {
        const JsonValue *name = findTag(log, "fields", "event");
        trace::OutcomeKind kindVal;
        if (!name ||
            !trace::outcomeKindFromName(name->asString(), kindVal))
            continue;
        trace::OutcomeEvent ev;
        ev.traceId = traceId;
        ev.service = service;
        ev.kind = kindVal;
        const JsonValue *v = findTag(log, "fields", "ditto.target");
        ev.target = static_cast<std::uint32_t>(v ? v->asU64() : 0);
        v = findTag(log, "fields", "ditto.endpoint");
        ev.endpoint = static_cast<std::uint32_t>(v ? v->asU64() : 0);
        v = findTag(log, "fields", "ditto.attempts");
        ev.attempts = static_cast<unsigned>(v ? v->asU64() : 0);
        v = findTag(log, "fields", "ditto.time_ns");
        ev.time = v ? parseDec(v->asString()) : 0;
        v = findTag(log, "fields", "ditto.cause");
        ev.cause = v ? v->asString() : std::string{};
        v = findTag(log, "fields", "ditto.seq");
        outcomes.push_back({v ? v->asU64() : 0, ev});
    }
}

} // namespace

trace::Tracer
importJaegerJson(const std::string &text, const ImportOptions &opts,
                 ImportReport *report)
{
    ImportReport localRep;
    ImportReport &rep = report ? *report : localRep;
    rep = ImportReport{};
    Ingest ing(opts, rep);

    const JsonValue root = parseJson(text);
    // Our own exports always carry dittoMeta; its absence marks a
    // foreign document and routes it to the tolerant pipeline.
    const JsonValue *meta = root.find("dittoMeta");
    const bool native = meta != nullptr;
    double sampleRate = 1.0;
    if (native) {
        if (const JsonValue *r = meta->find("sampleRate"))
            sampleRate = r->asDouble();
    }
    const JsonValue *data = root.find("data");
    if (!data || !data->isArray())
        throw std::runtime_error("jaeger: missing data array");

    std::vector<std::pair<std::uint64_t, trace::Span>> spans;
    std::vector<std::pair<std::uint64_t, trace::RpcEdge>> edges;
    std::vector<std::pair<std::uint64_t, trace::OutcomeEvent>>
        outcomes;
    std::vector<trace::Span> foreignSpans;
    std::vector<trace::RpcEdge> foreignEdges;

    for (const JsonValue &tr : data->items) {
        ++rep.traces;
        const JsonValue *procs = tr.find("processes");
        std::map<std::string, std::string> pidToService;
        if (procs && procs->isObject()) {
            for (const auto &[p, v] : procs->members) {
                const JsonValue *n = v.find("serviceName");
                pidToService[p] = n ? n->asString() : std::string{};
            }
        }
        if (!native) {
            importForeignTrace(tr, pidToService, ing, rep,
                               rep.endpointNames, foreignSpans,
                               foreignEdges);
            continue;
        }
        const JsonValue *spanArr = tr.find("spans");
        if (!spanArr || !spanArr->isArray())
            throw std::runtime_error("jaeger: trace without spans");
        for (const JsonValue &sp : spanArr->items) {
            const JsonValue *tid = sp.find("traceID");
            const JsonValue *pidv = sp.find("processID");
            if (!tid || !pidv)
                throw std::runtime_error(
                    "jaeger: span missing traceID/processID");
            const std::uint64_t traceId =
                parseHexId(tid->asString());
            const auto pit = pidToService.find(pidv->asString());
            if (pit == pidToService.end()) {
                ing.defect(rep.unknownProcessSpans,
                           "span in trace " + hex16(traceId) +
                               " references unknown processID \"" +
                               pidv->asString() + "\"");
                continue;  // lenient: skip the span
            }
            importNativeSpan(sp, traceId, pit->second, spans, edges);
            collectOutcomeLogs(sp, traceId, pit->second, outcomes);
        }
    }

    // stable_sort: foreign records share seq ties; document order is
    // then authoritative (native seqs are unique, so it is identical
    // to the previous sort there).
    const auto bySeq = [](const auto &a, const auto &b) {
        return a.first < b.first;
    };
    std::stable_sort(spans.begin(), spans.end(), bySeq);
    std::stable_sort(edges.begin(), edges.end(), bySeq);
    std::stable_sort(outcomes.begin(), outcomes.end(), bySeq);

    trace::Tracer tracer(sampleRate);
    for (auto &s : spans) {
        tracer.importSpan(std::move(s.second));
        ++rep.nativeSpans;
    }
    for (auto &e : edges)
        tracer.importEdge(std::move(e.second));
    for (auto &o : outcomes)
        tracer.importOutcome(std::move(o.second));
    for (auto &s : foreignSpans)
        tracer.importSpan(std::move(s));
    for (auto &e : foreignEdges)
        tracer.importEdge(std::move(e));
    return tracer;
}

trace::Tracer
importJaegerJson(const std::string &text)
{
    return importJaegerJson(text, ImportOptions{}, nullptr);
}

trace::Tracer
readJaegerJsonFile(const std::string &path, const ImportOptions &opts,
                   ImportReport *report)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("jaeger: cannot open " + path);
    std::ostringstream ss;
    ss << is.rdbuf();
    return importJaegerJson(ss.str(), opts, report);
}

trace::Tracer
readJaegerJsonFile(const std::string &path)
{
    return readJaegerJsonFile(path, ImportOptions{}, nullptr);
}

} // namespace ditto::obs
