#include "os.hh"

#include <algorithm>

#include "sim/machine.hh"
#include "support/logging.hh"

namespace shift
{

void
Os::addFile(const std::string &path, std::vector<uint8_t> bytes)
{
    files_[path] = std::move(bytes);
}

void
Os::addFile(const std::string &path, const std::string &text)
{
    files_[path] = std::vector<uint8_t>(text.begin(), text.end());
}

bool
Os::hasFile(const std::string &path) const
{
    return files_.count(path) != 0;
}

const std::vector<uint8_t> &
Os::fileBytes(const std::string &path) const
{
    auto it = files_.find(path);
    if (it == files_.end())
        SHIFT_FATAL("no simulated file '%s'", path.c_str());
    return it->second;
}

void
Os::queueConnection(std::string request)
{
    Connection conn;
    conn.request = std::move(request);
    pending_.push_back(std::move(conn));
}

void
Os::chargeIo(Machine &m, uint64_t base, uint64_t bytes)
{
    uint64_t perByte = bytes * costs_.ioPerByteNum / costs_.ioPerByteDen;
    m.addOsCycles(base + perByte);
}

Os::FdEntry *
Os::lookup(int64_t fd)
{
    // fd 0..2 are reserved; 1 is the captured stdout.
    if (fd < 3)
        return nullptr;
    size_t index = static_cast<size_t>(fd - 3);
    if (index >= fds_.size() || !fds_[index].open)
        return nullptr;
    return &fds_[index];
}

int64_t
Os::openFd(Machine &m, const std::string &path, int64_t flags)
{
    m.addOsCycles(costs_.open);
    bool writable = flags == kWriteCreate;
    if (!writable && !files_.count(path))
        return -1;
    if (writable)
        files_[path].clear();
    FdEntry entry;
    entry.kind = FdKind::File;
    entry.path = path;
    entry.writable = writable;
    entry.open = true;
    fds_.push_back(entry);
    return static_cast<int64_t>(fds_.size() - 1) + 3;
}

int64_t
Os::readFd(Machine &m, int64_t fd, uint64_t buf, uint64_t len)
{
    FdEntry *entry = lookup(fd);
    if (!entry)
        return -1;

    const uint8_t *src = nullptr;
    uint64_t avail = 0;
    std::string channel;
    if (entry->kind == FdKind::File) {
        const auto &bytes = files_[entry->path];
        if (entry->offset >= bytes.size()) {
            chargeIo(m, costs_.ioBase, 0);
            return 0;
        }
        src = bytes.data() + entry->offset;
        avail = bytes.size() - entry->offset;
        channel = "file";
    } else if (entry->kind == FdKind::Socket) {
        Connection &conn = active_[entry->connIndex];
        if (conn.consumed >= conn.request.size()) {
            chargeIo(m, costs_.ioBase, 0);
            return 0;
        }
        src = reinterpret_cast<const uint8_t *>(conn.request.data()) +
              conn.consumed;
        avail = conn.request.size() - conn.consumed;
        channel = "network";
    } else {
        return -1;
    }

    uint64_t n = std::min(len, avail);
    if (mem_write_failed(m, buf, src, n))
        return -1;
    entry->offset += (entry->kind == FdKind::File) ? n : 0;
    if (entry->kind == FdKind::Socket)
        active_[entry->connIndex].consumed += n;
    chargeIo(m, costs_.ioBase, n);
    if (inputHook_ && n > 0)
        inputHook_(m, buf, n, channel);
    return static_cast<int64_t>(n);
}

int64_t
Os::writeFd(Machine &m, int64_t fd, uint64_t buf, uint64_t len)
{
    len = std::min(len, kMaxTransfer);
    std::vector<uint8_t> data(len);
    if (m.memory().readBytes(buf, data.data(), len) != MemFault::None)
        return -1;

    if (fd == 1) {
        stdout_.append(data.begin(), data.end());
        chargeIo(m, costs_.ioBase, len);
        return static_cast<int64_t>(len);
    }

    FdEntry *entry = lookup(fd);
    if (!entry)
        return -1;
    if (entry->kind == FdKind::File) {
        if (!entry->writable)
            return -1;
        auto &bytes = files_[entry->path];
        bytes.insert(bytes.end(), data.begin(), data.end());
    } else if (entry->kind == FdKind::Socket) {
        responses_[active_[entry->connIndex].responseIndex]
            .append(data.begin(), data.end());
    } else {
        return -1;
    }
    chargeIo(m, costs_.ioBase, len);
    return static_cast<int64_t>(len);
}

int64_t
Os::closeFd(Machine &m, int64_t fd)
{
    m.addOsCycles(costs_.close);
    FdEntry *entry = lookup(fd);
    if (!entry)
        return -1;
    entry->open = false;
    return 0;
}

int64_t
Os::acceptFd(Machine &m)
{
    m.addOsCycles(costs_.accept);
    if (pending_.empty())
        return -1;
    Connection conn = std::move(pending_.front());
    pending_.pop_front();
    conn.responseIndex = responses_.size();
    responses_.emplace_back();
    active_.push_back(std::move(conn));

    FdEntry entry;
    entry.kind = FdKind::Socket;
    entry.connIndex = active_.size() - 1;
    entry.open = true;
    entry.writable = true;
    fds_.push_back(entry);
    return static_cast<int64_t>(fds_.size() - 1) + 3;
}

int64_t
Os::fileSize(const std::string &path) const
{
    auto it = files_.find(path);
    if (it == files_.end())
        return -1;
    return static_cast<int64_t>(it->second.size());
}

bool
Os::mem_write_failed(Machine &m, uint64_t buf, const uint8_t *src,
                     uint64_t n)
{
    return m.memory().writeBytes(buf, src, n) != MemFault::None;
}

} // namespace shift
