#include "minic_stdlib.hh"

namespace shift
{

const char *const kMiniCStdlib = R"MINIC(
// ---------------------------------------------------------------------
// MiniC standard library ("libc"). Compiled once per process and
// instrumented with each application, so taint propagates through
// these routines via the ordinary SHIFT load/store instrumentation.
// ---------------------------------------------------------------------

long strlen(char *s) {
    long n = 0;
    while (s[n]) n++;
    return n;
}

char *strcpy(char *dst, char *src) {
    long i = 0;
    while (src[i]) { dst[i] = src[i]; i++; }
    dst[i] = 0;
    return dst;
}

char *strncpy(char *dst, char *src, long n) {
    long i = 0;
    while (i < n && src[i]) { dst[i] = src[i]; i++; }
    while (i < n) { dst[i] = 0; i++; }
    return dst;
}

char *strcat(char *dst, char *src) {
    long n = strlen(dst);
    strcpy(dst + n, src);
    return dst;
}

int strcmp(char *a, char *b) {
    long i = 0;
    while (a[i] && a[i] == b[i]) i++;
    return (int)a[i] - (int)b[i];
}

int strncmp(char *a, char *b, long n) {
    long i = 0;
    while (i < n && a[i] && a[i] == b[i]) i++;
    if (i == n) return 0;
    return (int)a[i] - (int)b[i];
}

int tolower_c(int c) {
    if (c >= 'A' && c <= 'Z') return c + 32;
    return c;
}

int strcasecmp(char *a, char *b) {
    long i = 0;
    while (a[i] && tolower_c(a[i]) == tolower_c(b[i])) i++;
    return tolower_c(a[i]) - tolower_c(b[i]);
}

char *strchr(char *s, int c) {
    long i = 0;
    while (s[i]) {
        if ((int)s[i] == c) return s + i;
        i++;
    }
    if (c == 0) return s + i;
    return (char*)0;
}

char *strstr(char *hay, char *needle) {
    long nl = strlen(needle);
    if (nl == 0) return hay;
    long i = 0;
    while (hay[i]) {
        if (strncmp(hay + i, needle, nl) == 0) return hay + i;
        i++;
    }
    return (char*)0;
}

char *memcpy(char *dst, char *src, long n) {
    for (long i = 0; i < n; i++) dst[i] = src[i];
    return dst;
}

char *memset(char *dst, int c, long n) {
    for (long i = 0; i < n; i++) dst[i] = (char)c;
    return dst;
}

int memcmp(char *a, char *b, long n) {
    for (long i = 0; i < n; i++) {
        if (a[i] != b[i]) return (int)a[i] - (int)b[i];
    }
    return 0;
}

int isdigit_c(int c) { return c >= '0' && c <= '9'; }
int isalpha_c(int c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
int isspace_c(int c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

int atoi(char *s) {
    int sign = 1;
    long i = 0;
    while (isspace_c(s[i])) i++;
    if (s[i] == '-') { sign = -1; i++; }
    else if (s[i] == '+') i++;
    int v = 0;
    while (isdigit_c(s[i])) { v = v * 10 + (s[i] - '0'); i++; }
    return sign * v;
}

// Writes the decimal form of v into buf; returns its length.
long itoa(long v, char *buf) {
    long i = 0;
    if (v < 0) { buf[i] = '-'; i++; v = -v; }
    char tmp[24];
    long n = 0;
    if (v == 0) { tmp[n] = '0'; n++; }
    while (v > 0) { tmp[n] = (char)('0' + v % 10); n++; v = v / 10; }
    while (n > 0) { n--; buf[i] = tmp[n]; i++; }
    buf[i] = 0;
    return i;
}
)MINIC";

const minic::Library &
prebuiltStdlib()
{
    // A function-local static: the first caller compiles, concurrent
    // first callers wait for it, and a compile that throws is retried
    // by the next caller.
    static const minic::Library library =
        minic::compileLibrary(kMiniCStdlib);
    return library;
}

} // namespace shift
