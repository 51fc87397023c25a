#include "trace.hh"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cstdio>
#include <fstream>

namespace e2e
{

namespace
{

thread_local uint64_t tl_openSpan = kRefillThreadParent;

int64_t
clockNs(clockid_t clock)
{
    timespec ts{};
    if (::clock_gettime(clock, &ts) != 0)
        return 0;
    return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

} // anonymous namespace

uint64_t
openSpan()
{
    return tl_openSpan;
}

void
setOpenSpan(uint64_t id)
{
    tl_openSpan = id;
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int64_t
threadCpuNs()
{
    return clockNs(CLOCK_THREAD_CPUTIME_ID);
}

int64_t
threadCpuNs(pthread_t thread)
{
    clockid_t clock;
    if (::pthread_getcpuclockid(thread, &clock) != 0)
        return 0;
    return clockNs(clock);
}

int64_t
processCpuNs()
{
    return clockNs(CLOCK_PROCESS_CPUTIME_ID);
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

int
pinThread(size_t slot)
{
    // The process's CPUs as the first caller saw them, before any
    // pinning narrowed what later threads inherit.
    static const std::vector<int> cpus = []() {
        std::vector<int> ids;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
                if (CPU_ISSET(cpu, &set))
                    ids.push_back(cpu);
            }
        }
        return ids;
    }();
    if (cpus.empty())
        return -1;
    int cpu = cpus[slot % cpus.size()];
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one) != 0)
        return -1;
    return cpu;
}

HostCpu
readHostCpu()
{
    HostCpu cpu;
    std::ifstream in("/proc/stat");
    std::string label;
    if (!(in >> label) || label != "cpu")
        return cpu;
    // user nice system idle iowait irq softirq steal [guest...]
    uint64_t field = 0;
    for (int i = 0; i < 8 && (in >> field); ++i) {
        cpu.total += field;
        if (i == 7)
            cpu.steal = field;
    }
    return cpu;
}

double
stealFrac(const HostCpu &before, const HostCpu &after)
{
    if (after.total <= before.total)
        return 0.0;
    return static_cast<double>(after.steal - before.steal) /
           static_cast<double>(after.total - before.total);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

Tracer::Buffer *
Tracer::buffer(size_t reserve)
{
    auto buffer = std::make_unique<Buffer>();
    buffer->reserve(reserve);
    quac::MutexLock lock(mutex_);
    buffers_.push_back(std::move(buffer));
    return buffers_.back().get();
}

std::vector<Span>
Tracer::collect() const
{
    std::vector<Span> all;
    quac::MutexLock lock(mutex_);
    for (const auto &buffer : buffers_)
        all.insert(all.end(), buffer->begin(), buffer->end());
    return all;
}

bool
Tracer::write(const std::vector<Span> &spans, const std::string &path)
{
    static const char *const kNames[] = {"request", "poll", "fill",
                                         "call"};
    FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    std::fprintf(out, "kind\tid\tparent\taux\tstart_ns\tend_ns\tcpu_ns"
                      "\tbytes\n");
    for (const Span &s : spans) {
        std::fprintf(out, "%s\t%llu\t%llu\t%llu\t%lld\t%lld\t%lld\t%u\n",
                     kNames[static_cast<size_t>(s.kind)],
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.aux),
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs),
                     static_cast<long long>(s.cpuNs), s.bytes);
    }
    return std::fclose(out) == 0;
}

} // namespace e2e
