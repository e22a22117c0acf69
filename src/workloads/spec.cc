#include "spec.hh"

#include "support/logging.hh"

namespace shift::workloads
{

namespace
{

/** Deterministic host-side generator state (LCG). */
struct Rng
{
    uint64_t state;
    explicit Rng(uint64_t seed) : state(seed) {}
    uint64_t
    next()
    {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return state >> 33;
    }
    int range(int n) { return static_cast<int>(next() % n); }
};

// ---------------------------------------------------------------------
// 164.gzip: LZ77 compression with hash chains + decompression +
// verification. Byte-oriented, hash-table indexed by input data.
// ---------------------------------------------------------------------

const char *kGzipKernel = R"MC(
char inbuf[32768];
char outbuf[65536];
char debuf[32768];
int head[4096];
int chain[32768];

int hash3(int a, int b, int c) {
    return ((a << 6) ^ (b << 3) ^ c) & 4095;
}

int compress(int n) {
    for (int i = 0; i < 4096; i++) head[i] = 0 - 1;
    int out = 0;
    int i = 0;
    while (i < n) {
        int best_len = 0;
        int best_dist = 0;
        if (i + 3 < n) {
            int h = hash3(inbuf[i], inbuf[i + 1], inbuf[i + 2]);
            int cand = head[h];
            int tries = 8;
            while (cand >= 0 && tries > 0) {
                int len = 0;
                while (len < 250 && i + len < n
                       && inbuf[cand + len] == inbuf[i + len]) {
                    len++;
                }
                if (len > best_len) {
                    best_len = len;
                    best_dist = i - cand;
                }
                cand = chain[cand];
                tries--;
            }
            chain[i] = head[h];
            head[h] = i;
        }
        if (best_len >= 4 && best_dist < 32768) {
            outbuf[out] = 1;                       // match marker
            outbuf[out + 1] = (char)(best_dist >> 8);
            outbuf[out + 2] = (char)(best_dist & 255);
            outbuf[out + 3] = (char)best_len;
            out += 4;
            i += best_len;
        } else {
            outbuf[out] = 2;                       // literal marker
            outbuf[out + 1] = inbuf[i];
            out += 2;
            i++;
        }
    }
    return out;
}

int decompress(int m) {
    int i = 0;
    int pos = 0;
    while (i < m) {
        if (outbuf[i] == 1) {
            int dist = ((int)outbuf[i + 1] << 8) | (int)outbuf[i + 2];
            int len = outbuf[i + 3];
            for (int k = 0; k < len; k++) {
                debuf[pos] = debuf[pos - dist];
                pos++;
            }
            i += 4;
        } else {
            debuf[pos] = outbuf[i + 1];
            pos++;
            i += 2;
        }
    }
    return pos;
}

int main() {
    int fd = open("input.dat", 0);
    if (fd < 0) return 255;
    int n = read(fd, inbuf, 32767);
    close(fd);
    int m = compress(n);
    int back = decompress(m);
    if (back != n) return 254;
    int sum = 0;
    for (int i = 0; i < n; i++) {
        if (inbuf[i] != debuf[i]) return 253;
        sum += inbuf[i];
    }
    // Fold in the compression ratio so the output depends on the work.
    return (sum + m) & 127;
}
)MC";

std::string
gzipInput(int scale)
{
    // Text with repetition so LZ77 finds matches.
    static const char *kWords[] = {
        "the", "quick", "brown", "fox", "jumps", "over", "lazy",
        "dogs", "pack", "my", "box", "with", "five", "dozen",
        "liquor", "jugs", "compress", "window", "entropy",
    };
    Rng rng(42);
    std::string out;
    int target = 3000 * scale;
    while (static_cast<int>(out.size()) < target) {
        out += kWords[rng.range(19)];
        out.push_back(' ');
        if (rng.range(12) == 0)
            out.push_back('\n');
    }
    return out;
}

// ---------------------------------------------------------------------
// 176.gcc: an expression-language front end — tokenizer, recursive-
// descent parser/evaluator, symbol table indexed by (tainted)
// identifier. Branch- and compare-heavy.
// ---------------------------------------------------------------------

const char *kGccKernel = R"MC(
char src[32768];
long vals[26];
int pos;

int peek_c() { return src[pos]; }
int next_c() { int c = src[pos]; pos++; return c; }
void skip_ws() { while (src[pos] == ' ' || src[pos] == '\n') pos++; }

long parse_expr();

long parse_factor() {
    skip_ws();
    int c = peek_c();
    if (c == '(') {
        next_c();
        long v = parse_expr();
        skip_ws();
        next_c();           // ')'
        return v;
    }
    if (c >= 'a' && c <= 'z') {
        next_c();
        return vals[c - 'a'];
    }
    long v = 0;
    while (peek_c() >= '0' && peek_c() <= '9') {
        v = v * 10 + (next_c() - '0');
    }
    return v;
}

long parse_term() {
    long v = parse_factor();
    skip_ws();
    while (peek_c() == '*' || peek_c() == '/') {
        int op = next_c();
        long w = parse_factor();
        if (op == '*') v = v * w;
        else if (w != 0) v = v / w;
        skip_ws();
    }
    return v;
}

long parse_expr() {
    long v = parse_term();
    skip_ws();
    while (peek_c() == '+' || peek_c() == '-') {
        int op = next_c();
        long w = parse_term();
        if (op == '+') v = v + w;
        else v = v - w;
        skip_ws();
    }
    return v;
}

int main() {
    int fd = open("input.dat", 0);
    if (fd < 0) return 255;
    int n = read(fd, src, 32767);
    src[n] = 0;
    close(fd);
    for (int i = 0; i < 26; i++) vals[i] = i + 1;
    pos = 0;
    long sum = 0;
    while (1) {
        skip_ws();
        int c = peek_c();
        if (c == 0) break;
        int dst = next_c() - 'a';       // "x=expr;"
        next_c();                        // '='
        long v = parse_expr();
        vals[dst] = v;
        sum = sum + (v & 1023);
        skip_ws();
        if (peek_c() == ';') next_c();
    }
    return (int)(sum & 127);
}
)MC";

std::string
gccInput(int scale)
{
    Rng rng(7);
    std::string out;
    const char *ops = "+-*";
    for (int s = 0; s < 260 * scale; ++s) {
        char dst = static_cast<char>('a' + rng.range(26));
        out.push_back(dst);
        out.push_back('=');
        int terms = 2 + rng.range(4);
        for (int t = 0; t < terms; ++t) {
            if (rng.range(3) == 0) {
                out.push_back('(');
                out.push_back(static_cast<char>('a' + rng.range(26)));
                out.push_back(ops[rng.range(3)]);
                out += std::to_string(1 + rng.range(9));
                out.push_back(')');
            } else if (rng.range(2) == 0) {
                out.push_back(static_cast<char>('a' + rng.range(26)));
            } else {
                out += std::to_string(rng.range(100));
            }
            if (t + 1 < terms)
                out.push_back(ops[rng.range(3)]);
        }
        out += ";\n";
    }
    return out;
}

// ---------------------------------------------------------------------
// 186.crafty: bitboard chess move generation — 64-bit shift/mask ALU
// work, population counts, ray scans. Very light on memory.
// ---------------------------------------------------------------------

const char *kCraftyKernel = R"MC(
char text[4096];

long popcount(long b) {
    long n = 0;
    while (b != 0) { b = b & (b - 1); n++; }
    return n;
}

long knight_attacks(int sq) {
    long b = (long)1 << sq;
    long notA  = 0 - 1 - 0x0101010101010101;
    long notAB = notA & (0 - 1 - 0x0202020202020202);
    long notH  = 0 - 1 - (0x0101010101010101 << 7);
    long notGH = notH & (0 - 1 - (0x0101010101010101 << 6));
    long att = 0;
    att = att | ((b << 17) & notA);
    att = att | ((b << 15) & notH);
    att = att | ((b << 10) & notAB);
    att = att | ((b << 6)  & notGH);
    att = att | ((b >> 17) & notH);
    att = att | ((b >> 15) & notA);
    att = att | ((b >> 10) & notGH);
    att = att | ((b >> 6)  & notAB);
    return att;
}

long rook_attacks(int sq, long occ) {
    long att = 0;
    int r = sq / 8;
    int f = sq % 8;
    for (int i = r + 1; i < 8; i++) {
        long m = (long)1 << (i * 8 + f);
        att = att | m;
        if (occ & m) break;
    }
    for (int i = r - 1; i >= 0; i--) {
        long m = (long)1 << (i * 8 + f);
        att = att | m;
        if (occ & m) break;
    }
    for (int i = f + 1; i < 8; i++) {
        long m = (long)1 << (r * 8 + i);
        att = att | m;
        if (occ & m) break;
    }
    for (int i = f - 1; i >= 0; i--) {
        long m = (long)1 << (r * 8 + i);
        att = att | m;
        if (occ & m) break;
    }
    return att;
}

int main() {
    int fd = open("input.dat", 0);
    if (fd < 0) return 255;
    int n = read(fd, text, 4095);
    text[n] = 0;
    close(fd);
    long seed = atoi(text);
    int rounds = atoi(strchr(text, ' ') + 1);
    long total = 0;
    for (int g = 0; g < rounds; g++) {
        seed = (seed * 1103515245 + 12345) & 0x7fffffffffff;
        long white = seed;
        seed = (seed * 1103515245 + 12345) & 0x7fffffffffff;
        long occ = white | seed;
        long mobility = 0;
        for (int sq = 0; sq < 64; sq++) {
            long bit = (long)1 << sq;
            if (white & bit) {
                mobility += popcount(knight_attacks(sq));
                if ((sq & 3) == 0)
                    mobility += popcount(rook_attacks(sq, occ));
            }
        }
        total += mobility;
    }
    return (int)(total & 127);
}
)MC";

std::string
craftyInput(int scale)
{
    return "987654321 " + std::to_string(60 * scale) + "\n";
}

// ---------------------------------------------------------------------
// 256.bzip2: blockwise Burrows-Wheeler transform + move-to-front +
// run-length coding, then full inverse + verification. The inverse
// BWT's counting sort indexes by (tainted) byte values.
// ---------------------------------------------------------------------

const char *kBzip2Kernel = R"MC(
char inbuf[16384];
char block[256];
char bwt[256];
char mtfbuf[256];
char rle[1024];
char deblock[256];
int rot[256];
int count[256];
int next_row[256];
char mtf_tab[256];

int block_n;

int rot_cmp(int a, int b) {
    for (int k = 0; k < block_n; k++) {
        int ca = block[(a + k) % block_n];
        int cb = block[(b + k) % block_n];
        if (ca != cb) return ca - cb;
    }
    return 0;
}

int do_bwt() {
    // Selection sort of rotation start indices.
    for (int i = 0; i < block_n; i++) rot[i] = i;
    for (int i = 0; i < block_n - 1; i++) {
        int best = i;
        for (int j = i + 1; j < block_n; j++) {
            if (rot_cmp(rot[j], rot[best]) < 0) best = j;
        }
        int t = rot[i]; rot[i] = rot[best]; rot[best] = t;
    }
    int primary = 0;
    for (int i = 0; i < block_n; i++) {
        bwt[i] = block[(rot[i] + block_n - 1) % block_n];
        if (rot[i] == 0) primary = i;
    }
    return primary;
}

void mtf_init() {
    for (int i = 0; i < 256; i++) mtf_tab[i] = (char)i;
}

int do_mtf() {
    mtf_init();
    for (int i = 0; i < block_n; i++) {
        int c = bwt[i];
        int j = 0;
        while ((int)mtf_tab[j] != c) j++;
        mtfbuf[i] = (char)j;
        while (j > 0) { mtf_tab[j] = mtf_tab[j - 1]; j--; }
        mtf_tab[0] = (char)c;
    }
    return block_n;
}

int do_unmtf() {
    mtf_init();
    for (int i = 0; i < block_n; i++) {
        int j = mtfbuf[i];
        int c = mtf_tab[j];
        bwt[i] = (char)c;
        while (j > 0) { mtf_tab[j] = mtf_tab[j - 1]; j--; }
        mtf_tab[0] = (char)c;
    }
    return block_n;
}

void do_ibwt(int primary) {
    for (int i = 0; i < 256; i++) count[i] = 0;
    for (int i = 0; i < block_n; i++) count[bwt[i]] += 1;
    int total = 0;
    for (int i = 0; i < 256; i++) {
        int c = count[i];
        count[i] = total;
        total += c;
    }
    for (int i = 0; i < block_n; i++) {
        int c = bwt[i];
        next_row[count[c]] = i;
        count[c] += 1;
    }
    int row = next_row[primary];
    for (int i = 0; i < block_n; i++) {
        deblock[i] = bwt[row];
        row = next_row[row];
    }
}

int main() {
    int fd = open("input.dat", 0);
    if (fd < 0) return 255;
    int n = read(fd, inbuf, 16383);
    close(fd);
    int sum = 0;
    int off = 0;
    while (off < n) {
        block_n = n - off;
        if (block_n > 200) block_n = 200;
        for (int i = 0; i < block_n; i++) block[i] = inbuf[off + i];
        int primary = do_bwt();
        do_mtf();
        // verify the round trip
        do_unmtf();
        do_ibwt(primary);
        for (int i = 0; i < block_n; i++) {
            if (deblock[i] != block[i]) return 254;
            sum += mtfbuf[i];
        }
        off += block_n;
    }
    return sum & 127;
}
)MC";

std::string
bzip2Input(int scale)
{
    Rng rng(1234);
    std::string out;
    static const char *kChunks[] = {
        "abracadabra", "mississippi", "bananabanana", "blockblock",
        "sortingsort", "wheeler",
    };
    int target = 390 * scale;
    while (static_cast<int>(out.size()) < target)
        out += kChunks[rng.range(6)];
    return out;
}

// ---------------------------------------------------------------------
// 175.vpr: simulated-annealing placement. Net endpoints come from the
// (tainted) netlist, so position lookups index with tainted cell ids.
// ---------------------------------------------------------------------

const char *kVprKernel = R"MC(
char text[32768];
int neta[2048];
int netb[2048];
int posx[512];
int posy[512];
int cell_at[1024];
int pos;

int read_int() {
    while (text[pos] == ' ' || text[pos] == '\n') pos++;
    int v = 0;
    while (text[pos] >= '0' && text[pos] <= '9') {
        v = v * 10 + (text[pos] - '0');
        pos++;
    }
    return v;
}

int net_cost(int i) {
    int a = neta[i];
    int b = netb[i];
    int dx = posx[a] - posx[b];
    int dy = posy[a] - posy[b];
    if (dx < 0) dx = 0 - dx;
    if (dy < 0) dy = 0 - dy;
    return dx + dy;
}

int main() {
    int fd = open("input.dat", 0);
    if (fd < 0) return 255;
    int n = read(fd, text, 32767);
    text[n] = 0;
    close(fd);
    pos = 0;
    int ncells = read_int();
    int nnets = read_int();
    long seed = read_int();
    int grid = 1;
    while (grid * grid < ncells) grid++;
    for (int c = 0; c < ncells; c++) {
        posx[c] = c % grid;
        posy[c] = c / grid;
        cell_at[posy[c] * grid + posx[c]] = c;
    }
    for (int i = 0; i < nnets; i++) {
        neta[i] = read_int() % ncells;
        netb[i] = read_int() % ncells;
    }
    long cost = 0;
    for (int i = 0; i < nnets; i++) cost += net_cost(i);
    // Annealing sweeps: swap random cell pairs, keep improvements
    // (plus a decaying threshold of uphill moves).
    int temp = grid;
    for (int sweep = 0; sweep < 5; sweep++) {
        for (int t = 0; t < ncells; t++) {
            seed = (seed * 1103515245 + 12345) & 0x7fffffff;
            int c1 = (int)(seed % ncells);
            seed = (seed * 1103515245 + 12345) & 0x7fffffff;
            int c2 = (int)(seed % ncells);
            if (c1 == c2) continue;
            long before = 0;
            for (int i = 0; i < nnets; i++) {
                if (neta[i] == c1 || netb[i] == c1
                    || neta[i] == c2 || netb[i] == c2) {
                    before += net_cost(i);
                }
            }
            int tx = posx[c1]; int ty = posy[c1];
            posx[c1] = posx[c2]; posy[c1] = posy[c2];
            posx[c2] = tx; posy[c2] = ty;
            long after = 0;
            for (int i = 0; i < nnets; i++) {
                if (neta[i] == c1 || netb[i] == c1
                    || neta[i] == c2 || netb[i] == c2) {
                    after += net_cost(i);
                }
            }
            if (after > before + temp) {
                // revert
                tx = posx[c1]; ty = posy[c1];
                posx[c1] = posx[c2]; posy[c1] = posy[c2];
                posx[c2] = tx; posy[c2] = ty;
            } else {
                cost += after - before;
            }
        }
        if (temp > 0) temp--;
    }
    long check = 0;
    for (int i = 0; i < nnets; i++) check += net_cost(i);
    return (int)(check & 127);
}
)MC";

std::string
vprInput(int scale)
{
    int ncells = 48 * scale;
    int nnets = 96 * scale;
    Rng rng(99);
    std::string out = std::to_string(ncells) + " " +
                      std::to_string(nnets) + " 31415\n";
    for (int i = 0; i < nnets; ++i) {
        out += std::to_string(rng.range(ncells)) + " " +
               std::to_string(rng.range(ncells)) + "\n";
    }
    return out;
}

// ---------------------------------------------------------------------
// 181.mcf: min-cost-flow core modelled by Bellman-Ford shortest paths
// over a (tainted) arc list: pure pointer/array chasing.
// ---------------------------------------------------------------------

const char *kMcfKernel = R"MC(
char text[65536];
int arc_src[4096];
int arc_dst[4096];
int arc_w[4096];
long dist[512];
int pos;

int read_int() {
    while (text[pos] == ' ' || text[pos] == '\n') pos++;
    int v = 0;
    while (text[pos] >= '0' && text[pos] <= '9') {
        v = v * 10 + (text[pos] - '0');
        pos++;
    }
    return v;
}

int relax_arcs(int m) {
    int changed = 0;
    for (int a = 0; a < m; a++) {
        int s = arc_src[a];
        int d = arc_dst[a];
        long nd = dist[s] + arc_w[a];
        if (dist[s] < 1000000000 && nd < dist[d]) {
            dist[d] = nd;
            changed = 1;
        }
    }
    return changed;
}

int main() {
    int fd = open("input.dat", 0);
    if (fd < 0) return 255;
    int n = read(fd, text, 65535);
    text[n] = 0;
    close(fd);
    pos = 0;
    int nodes = read_int();
    int m = read_int();
    for (int a = 0; a < m; a++) {
        arc_src[a] = read_int() % nodes;
        arc_dst[a] = read_int() % nodes;
        arc_w[a] = read_int() + 1;
    }
    for (int i = 0; i < nodes; i++) dist[i] = 1000000000;
    dist[0] = 0;
    int rounds = 0;
    while (relax_arcs(m) && rounds < nodes) rounds++;
    long sum = 0;
    for (int i = 0; i < nodes; i++) {
        if (dist[i] < 1000000000) sum += dist[i];
    }
    return (int)((sum + rounds) & 127);
}
)MC";

std::string
mcfInput(int scale)
{
    int nodes = 160 * scale;
    int arcs = 1400 * scale;
    Rng rng(555);
    std::string out =
        std::to_string(nodes) + " " + std::to_string(arcs) + "\n";
    for (int i = 0; i < arcs; ++i) {
        out += std::to_string(rng.range(nodes)) + " " +
               std::to_string(rng.range(nodes)) + " " +
               std::to_string(rng.range(90)) + "\n";
    }
    return out;
}

// ---------------------------------------------------------------------
// 197.parser: word tokenizer + open-addressing dictionary + linkage
// state machine. String processing with tainted hash probes.
// ---------------------------------------------------------------------

const char *kParserKernel = R"MC(
char text[32768];
char dict_keys[8192];
int dict_used[512];
char word[64];

int hash_word(char *w) {
    int h = 17;
    long i = 0;
    while (w[i]) {
        h = (h * 31 + w[i]) & 511;
        i++;
    }
    return h;
}

int dict_find(char *w, int insert) {
    int h = hash_word(w);
    int probes = 0;
    while (probes < 512) {
        long base = h * 16;
        if (dict_used[h] == 0) {
            if (insert) {
                dict_used[h] = 1;
                long t = 0;
                while (t < 15 && w[t]) {
                    dict_keys[base + t] = w[t];
                    t++;
                }
                dict_keys[base + t] = 0;
                return h;
            }
            return -1;
        }
        // Inline comparison: the probe offset is tainted, so the
        // bounds-checked accesses stay inside this (relaxed) function.
        long t = 0;
        while (dict_keys[base + t] && dict_keys[base + t] == w[t]) t++;
        if (dict_keys[base + t] == 0 && w[t] == 0) return h;
        h = (h + 1) & 511;
        probes++;
    }
    return -1;
}

int classify(char *w) {
    // crude part-of-speech: articles, verbs (ends in 's'), nouns
    if (strcmp(w, "the") == 0 || strcmp(w, "a") == 0) return 1;
    long n = strlen(w);
    if (n > 2 && w[n - 1] == 's') return 2;
    return 3;
}

int main() {
    int fd = open("input.dat", 0);
    if (fd < 0) return 255;
    int n = read(fd, text, 32767);
    text[n] = 0;
    close(fd);
    int known = 0;
    int newwords = 0;
    int links = 0;
    int state = 0;
    int i = 0;
    while (i < n) {
        while (i < n && (text[i] == ' ' || text[i] == '\n')) i++;
        int j = 0;
        while (i < n && text[i] != ' ' && text[i] != '\n' && j < 63) {
            word[j] = text[i];
            i++; j++;
        }
        if (j == 0) continue;
        word[j] = 0;
        int h = dict_find(word, 0);
        if (h >= 0) known++;
        else { dict_find(word, 1); newwords++; }
        // linkage grammar: article -> noun -> verb transitions count
        int cls = classify(word);
        if (state == 1 && cls == 3) links++;
        if (state == 3 && cls == 2) links++;
        state = cls;
    }
    return (known + newwords * 3 + links * 7) & 127;
}
)MC";

std::string
parserInput(int scale)
{
    static const char *kVocab[] = {
        "the", "a", "dog", "cat", "bird", "tree", "runs", "jumps",
        "sees", "house", "river", "stone", "walks", "sings", "cloud",
        "mountain", "codes", "parser", "links", "grammar",
    };
    Rng rng(2718);
    std::string out;
    for (int i = 0; i < 1400 * scale; ++i) {
        out += kVocab[rng.range(20)];
        out.push_back(rng.range(14) == 0 ? '\n' : ' ');
    }
    return out;
}

// ---------------------------------------------------------------------
// 300.twolf: standard-cell row placement — swap optimization over
// rows, minimizing row-length overflow plus net spans.
// ---------------------------------------------------------------------

const char *kTwolfKernel = R"MC(
char text[32768];
int width[512];
int row_of[512];
int slot_of[512];
int row_len[32];
int neta[1024];
int netb[1024];
int pos;

int read_int() {
    while (text[pos] == ' ' || text[pos] == '\n') pos++;
    int v = 0;
    while (text[pos] >= '0' && text[pos] <= '9') {
        v = v * 10 + (text[pos] - '0');
        pos++;
    }
    return v;
}

int span_cost(int nnets) {
    int total = 0;
    for (int i = 0; i < nnets; i++) {
        int dr = row_of[neta[i]] - row_of[netb[i]];
        int ds = slot_of[neta[i]] - slot_of[netb[i]];
        if (dr < 0) dr = 0 - dr;
        if (ds < 0) ds = 0 - ds;
        total += dr * 3 + ds;
    }
    return total;
}

int overflow_cost(int nrows, int cap) {
    int total = 0;
    for (int r = 0; r < nrows; r++) {
        if (row_len[r] > cap) total += (row_len[r] - cap) * 5;
    }
    return total;
}

int main() {
    int fd = open("input.dat", 0);
    if (fd < 0) return 255;
    int n = read(fd, text, 32767);
    text[n] = 0;
    close(fd);
    pos = 0;
    int ncells = read_int();
    int nnets = read_int();
    long seed = read_int();
    int nrows = 8;
    int percell = ncells / nrows + 1;
    for (int c = 0; c < ncells; c++) {
        width[c] = read_int() + 1;
        row_of[c] = c / percell;
        slot_of[c] = c % percell;
        row_len[row_of[c]] += width[c];
    }
    for (int i = 0; i < nnets; i++) {
        neta[i] = read_int() % ncells;
        netb[i] = read_int() % ncells;
    }
    int cap = 0;
    for (int c = 0; c < ncells; c++) cap += width[c];
    cap = cap / nrows + 2;
    int cost = span_cost(nnets) + overflow_cost(nrows, cap);
    for (int pass = 0; pass < 40; pass++) {
        seed = (seed * 1103515245 + 12345) & 0x7fffffff;
        int c1 = (int)(seed % ncells);
        seed = (seed * 1103515245 + 12345) & 0x7fffffff;
        int c2 = (int)(seed % ncells);
        if (c1 == c2) continue;
        // swap rows/slots of c1, c2
        int r1 = row_of[c1]; int s1 = slot_of[c1];
        row_of[c1] = row_of[c2]; slot_of[c1] = slot_of[c2];
        row_of[c2] = r1; slot_of[c2] = s1;
        row_len[r1] += width[c2] - width[c1];
        row_len[row_of[c1]] += width[c1] - width[c2];
        int next = span_cost(nnets) + overflow_cost(nrows, cap);
        if (next > cost) {
            int r2 = row_of[c1]; int s2 = slot_of[c1];
            row_of[c1] = row_of[c2]; slot_of[c1] = slot_of[c2];
            row_of[c2] = r2; slot_of[c2] = s2;
            row_len[r1] += width[c1] - width[c2];
            row_len[row_of[c2]] += width[c2] - width[c1];
        } else {
            cost = next;
        }
    }
    return (span_cost(nnets) + cost) & 127;
}
)MC";

std::string
twolfInput(int scale)
{
    int ncells = 120 * scale;
    int nnets = 520 * scale;
    Rng rng(31337);
    std::string out = std::to_string(ncells) + " " +
                      std::to_string(nnets) + " 8675309\n";
    for (int c = 0; c < ncells; ++c)
        out += std::to_string(rng.range(9)) + "\n";
    for (int i = 0; i < nnets; ++i) {
        out += std::to_string(rng.range(ncells)) + " " +
               std::to_string(rng.range(ncells)) + "\n";
    }
    return out;
}

std::vector<SpecKernel>
buildKernels()
{
    std::vector<SpecKernel> kernels;

    kernels.push_back({"164.gzip", "gzip", kGzipKernel,
                       {"compress", "decompress"},
                       {"compress"},
                       gzipInput, 1});
    kernels.push_back({"176.gcc", "gcc", kGccKernel,
                       {"parse_factor"},
                       {"main"},
                       gccInput, 1});
    kernels.push_back({"186.crafty", "crafty", kCraftyKernel,
                       {},
                       {},
                       craftyInput, 1});
    kernels.push_back({"256.bzip2", "bzip2", kBzip2Kernel,
                       {"do_ibwt", "do_unmtf"},
                       {"do_ibwt"},
                       bzip2Input, 1});
    kernels.push_back({"175.vpr", "vpr", kVprKernel,
                       {"net_cost", "main"},
                       {"main"},
                       vprInput, 1});
    kernels.push_back({"181.mcf", "mcf", kMcfKernel,
                       {"relax_arcs"},
                       {"relax_arcs"},
                       mcfInput, 1});
    kernels.push_back({"197.parser", "parser", kParserKernel,
                       {"dict_find"},
                       {"dict_find"},
                       parserInput, 1});
    kernels.push_back({"300.twolf", "twolf", kTwolfKernel,
                       {"span_cost", "main"},
                       {"main"},
                       twolfInput, 1});
    return kernels;
}

} // namespace

const std::vector<SpecKernel> &
specKernels()
{
    static const std::vector<SpecKernel> kernels = buildKernels();
    return kernels;
}

const SpecKernel &
specKernel(const std::string &shortName)
{
    for (const SpecKernel &k : specKernels()) {
        if (k.shortName == shortName)
            return k;
    }
    SHIFT_FATAL("no SPEC kernel named '%s'", shortName.c_str());
}

SpecRun
runSpecKernel(const SpecKernel &kernel, const SpecRunConfig &config)
{
    SessionOptions options;
    options.mode = config.mode;
    options.policy.granularity = config.granularity;
    options.policy.taintFile = config.taintInput;
    options.features = config.features;
    options.engine = config.engine;
    options.instr.relaxLoadFunctions = kernel.relaxLoadFunctions;
    options.instr.relaxStoreFunctions = kernel.relaxStoreFunctions;

    Session session(kernel.source, options);
    session.os().addFile("input.dat",
                         kernel.makeInput(kernel.defaultScale));

    SpecRun run;
    run.instrStats = session.instrStats();
    run.result = session.run();
    return run;
}

} // namespace shift::workloads
