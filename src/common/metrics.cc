#include "common/metrics.hh"

#include <algorithm>
#include <mutex>
#include <sstream>

#include "common/trace.hh"

namespace qgpu
{

void
Histogram::observe(double value)
{
    if (count_ == 0) {
        min_ = max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ += other.count_;
    sum_ += other.sum_;
}

double
Histogram::min() const
{
    return count_ ? min_ : 0.0;
}

double
Histogram::max() const
{
    return count_ ? max_ : 0.0;
}

double
Histogram::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

void
HistogramSlot::observe(double value)
{
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    double seen = min_.load(std::memory_order_relaxed);
    while (value < seen &&
           !min_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed))
    {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed))
    {
    }
    if (!visible_.load(std::memory_order_relaxed))
        visible_.store(true, std::memory_order_relaxed);
}

Histogram
HistogramSlot::snapshot() const
{
    Histogram h;
    h.count_ = count_.load(std::memory_order_relaxed);
    h.sum_ = sum_.load(std::memory_order_relaxed);
    h.min_ = min_.load(std::memory_order_relaxed);
    h.max_ = max_.load(std::memory_order_relaxed);
    return h;
}

void
HistogramSlot::reset()
{
    visible_.store(false, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    min_.store(std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
    max_.store(-std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

template <class Slot>
Slot &
MetricsRegistry::slot(SlotMap<Slot> &slots, const std::string &name)
{
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        const auto it = slots.find(name);
        if (it != slots.end())
            return *it->second;
    }
    std::unique_lock<std::shared_mutex> lock(mutex_);
    auto &entry = slots[name];
    if (!entry)
        entry = std::make_unique<Slot>();
    return *entry;
}

template <class Slot>
const Slot *
MetricsRegistry::find(const SlotMap<Slot> &slots,
                      const std::string &name) const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    const auto it = slots.find(name);
    return it == slots.end() ? nullptr : it->second.get();
}

CounterSlot &
MetricsRegistry::counterSlot(const std::string &name)
{
    return slot(counters_, name);
}

HistogramSlot &
MetricsRegistry::histogramSlot(const std::string &name)
{
    return slot(histograms_, name);
}

void
MetricsRegistry::add(const std::string &name, double delta)
{
    counterSlot(name).add(delta);
}

double
MetricsRegistry::counter(const std::string &name) const
{
    const CounterSlot *c = find(counters_, name);
    return c ? c->value() : 0.0;
}

void
MetricsRegistry::observe(const std::string &name, double value)
{
    histogramSlot(name).observe(value);
}

Histogram
MetricsRegistry::histogram(const std::string &name) const
{
    const HistogramSlot *h = find(histograms_, name);
    return h ? h->snapshot() : Histogram{};
}

std::vector<std::string>
MetricsRegistry::counterNames() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    std::vector<std::string> names;
    for (const auto &[name, c] : counters_)
        if (c->visible_.load(std::memory_order_relaxed))
            names.push_back(name);
    return names;
}

std::vector<std::string>
MetricsRegistry::histogramNames() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    std::vector<std::string> names;
    for (const auto &[name, h] : histograms_)
        if (h->visible_.load(std::memory_order_relaxed))
            names.push_back(name);
    return names;
}

void
MetricsRegistry::clear()
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    for (auto &[name, c] : counters_) {
        c->visible_.store(false, std::memory_order_relaxed);
        c->value_.store(0.0, std::memory_order_relaxed);
    }
    for (auto &[name, h] : histograms_)
        h->reset();
}

std::string
MetricsRegistry::toJson() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    std::ostringstream os;
    os.precision(12);
    os << "{\"counters\": {";
    bool first = true;
    for (const auto &[name, c] : counters_) {
        if (!c->visible_.load(std::memory_order_relaxed))
            continue;
        os << (first ? "" : ", ") << '"' << jsonEscape(name)
           << "\": " << c->value();
        first = false;
    }
    os << "}, \"histograms\": {";
    first = true;
    for (const auto &[name, h] : histograms_) {
        if (!h->visible_.load(std::memory_order_relaxed))
            continue;
        const Histogram hist = h->snapshot();
        os << (first ? "" : ", ") << '"' << jsonEscape(name)
           << "\": {\"count\": " << hist.count()
           << ", \"sum\": " << hist.sum()
           << ", \"min\": " << hist.min()
           << ", \"max\": " << hist.max()
           << ", \"mean\": " << hist.mean() << "}";
        first = false;
    }
    os << "}}";
    return os.str();
}

std::string
MetricsRegistry::toCsv() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    std::ostringstream os;
    os.precision(12);
    os << "kind,name,count,sum,min,max,mean\n";
    for (const auto &[name, c] : counters_) {
        if (!c->visible_.load(std::memory_order_relaxed))
            continue;
        const double value = c->value();
        os << "counter," << name << ",1," << value << ',' << value
           << ',' << value << ',' << value << '\n';
    }
    for (const auto &[name, h] : histograms_) {
        if (!h->visible_.load(std::memory_order_relaxed))
            continue;
        const Histogram hist = h->snapshot();
        os << "histogram," << name << ',' << hist.count() << ','
           << hist.sum() << ',' << hist.min() << ',' << hist.max()
           << ',' << hist.mean() << '\n';
    }
    return os.str();
}

} // namespace qgpu
