// netd: the untrusted user-level network stack (paper §5.7).
//
// lwIP's role is played by "ministack": a small reliable stream protocol
// (the wire is a lossless switch, so no retransmission machinery is needed —
// what matters for the paper's claims is *where the bytes and taint flow*,
// not TCP fidelity). netd runs as a regular process owning the device
// categories nr/nw; the device label {nr3, nw0, i2, 1} taints everything
// read from the network with i.
//
// Two interaction paths, as in the paper:
//  * a control gate ("netd.ctl") for socket setup — the RPC-like slow path;
//  * a per-socket *shared memory segment* (labeled {i2, 1}) with tx/rx rings
//    and futex wakeups — the fast path the paper describes as "donating a
//    worker thread to netd".
//
// Because rx data lives in {i2, 1} segments, an application must taint
// itself i2 before it can read from a socket; an untainted process simply
// cannot observe network payloads. Conversely anything tainted beyond i2 in
// an unowned category cannot transmit. This is the entire §6.3 story.
#ifndef SRC_NET_NETD_H_
#define SRC_NET_NETD_H_

#include <atomic>
#include <map>
#include <memory>
#include <thread>

#include "src/core/sync.h"
#include "src/core/thread_annotations.h"
#include "src/net/wire.h"
#include "src/unixlib/unix.h"

namespace histar {

// Stream protocol message types (frame proto 0x0800).
inline constexpr uint16_t kProtoStream = 0x0800;

// Size of one frame staging slot (netd's device staging segment, vpnd's tun
// staging segment): every frame the stream protocol builds fits.
inline constexpr uint64_t kNetFrameMax = 2048;

struct NetTaint {
  CategoryId nr = kInvalidCategory;  // device read capability
  CategoryId nw = kInvalidCategory;  // device write capability
  CategoryId i = kInvalidCategory;   // the network taint itself
};

class NetDaemon {
 public:
  // Boots a netd process: allocates nr/nw/i (or uses `taint` if provided),
  // creates the kernel device bound to `port`, spawns the daemon. `name`
  // distinguishes multiple stacks ("netd", "vpnd-stack").
  static std::unique_ptr<NetDaemon> Start(UnixWorld* world, SimNetPort* port,
                                          const std::string& name,
                                          const NetTaint* taint = nullptr);
  ~NetDaemon();

  const NetTaint& taint() const { return taint_; }
  ObjectId device() const { return device_; }
  MacAddr mac() const { return mac_; }
  ObjectId proc_container() const { return ids_.proc_ct; }
  ObjectId ctl_gate() const { return ctl_gate_; }

  // ---- client API (runs on the caller's thread; crosses the ctl gate) ----

  // Opens a listening socket on `port`; returns a socket id.
  Result<uint64_t> Listen(ObjectId self, uint16_t port);
  // Accepts a pending connection (blocking up to timeout); returns a
  // connected socket id.
  Result<uint64_t> Accept(ObjectId self, uint64_t listen_sock, uint32_t timeout_ms);
  // Connects to a remote stack.
  Result<uint64_t> Connect(ObjectId self, MacAddr dst, uint16_t port);
  Status CloseSocket(ObjectId self, uint64_t sock);

  // Fast path: direct ring I/O on the socket's shared segment. The caller
  // must be able to observe/modify {i2, 1} segments (i.e. carry i2 taint).
  Result<uint64_t> Send(ObjectId self, uint64_t sock, const void* buf, uint64_t len);
  Result<uint64_t> Recv(ObjectId self, uint64_t sock, void* buf, uint64_t len,
                        uint32_t timeout_ms);

  // The shared segment of a socket (tests poke at labels).
  Result<ContainerEntry> SocketSegment(uint64_t sock);

  // Convenience: the label a client thread needs to use sockets ({i2, 1}
  // joined into its own label).
  Label ClientTaint() const { return Label(Level::k1, {{taint_.i, Level::k2}}); }

  // Stops the pump and transmit threads (tests; destructor also does this).
  void Stop();

  uint64_t frames_sent() const { return frames_sent_.load(); }
  uint64_t frames_received() const { return frames_received_.load(); }

 private:
  NetDaemon() = default;

  struct Socket;

  // Gate entry bodies (execute with netd privilege on the caller's thread).
  friend void NetdCtlEntry(GateCall& call);
  uint64_t CtlOp(ObjectId self, uint64_t op, uint64_t a, uint64_t b, uint64_t c);

  // The receive pump: device → socket rx rings. It sleeps on the NIC.
  void PumpLoop();
  void HandleFrame(const std::vector<uint8_t>& frame);
  // Moves a socket's staged payload into its rx ring, then raises a
  // deferred FIN once nothing precedes it.
  void DeliverRx(Socket* s) REQUIRES(mu_);
  // The transmit loop: socket tx rings → device, on its own netd thread.
  // It sleeps on the doorbell, which Send rings after publishing bytes, so
  // queued bytes never wait for a NIC event or a poll timeout.
  void TxLoop();
  // Moves a socket's tx ring onto the wire. Returns true if a frame left.
  bool DrainTx(Socket* s) REQUIRES(mu_);
  // Sets the doorbell word and wakes the transmit loop.
  void RingDoorbell(ObjectId self);
  bool SendFrame(const MacAddr& dst, uint8_t type, uint16_t sport, uint16_t dport,
                 const uint8_t* data, uint16_t len) REQUIRES(mu_);
  std::vector<uint8_t> BuildFrame(const MacAddr& dst, uint8_t type, uint16_t sport,
                                  uint16_t dport, const uint8_t* data, uint16_t len) const;

  Result<Socket*> FindSocket(uint64_t sock) REQUIRES(mu_);
  Result<uint64_t> MakeSocketWithSegment() REQUIRES(mu_);

  UnixWorld* world_ = nullptr;
  Kernel* kernel_ = nullptr;
  SimNetPort* port_ = nullptr;
  MacAddr mac_{};
  NetTaint taint_;
  ObjectId device_ = kInvalidObject;
  ProcessIds ids_;
  ObjectId pump_thread_ = kInvalidObject;
  ObjectId tx_thread_ = kInvalidObject;  // second netd thread: runs TxLoop
  ObjectId ctl_gate_ = kInvalidObject;
  // Device frame staging, {nr3,nw0,i2,1}: one receive slot (the pump's)
  // and one transmit slot (mu_ holders), kNetFrameMax bytes each.
  ObjectId rxbuf_seg_ = kInvalidObject;
  // The transmit doorbell: one flag word, labeled {i2,1} like the
  // socket segments, so every thread that can Send can ring it.
  ObjectId doorbell_seg_ = kInvalidObject;

  // Guards the socket table and every Socket's fields (the per-Socket
  // members cannot carry GUARDED_BY themselves — the analysis cannot name
  // another object's mutex — so their discipline is this comment plus the
  // REQUIRES on every helper that touches a Socket*).
  Mutex mu_;
  std::map<uint64_t, std::unique_ptr<Socket>> sockets_ GUARDED_BY(mu_);
  uint64_t next_sock_ GUARDED_BY(mu_) = 1;
  // Socket id → shared segment, for Send and Recv. A leaf lock of its own
  // (taken under mu_ only to insert), so the fast path never waits behind
  // mu_, which the transmit loop holds while it feeds the wire.
  Mutex seg_mu_;
  std::map<uint64_t, ObjectId> socket_segs_ GUARDED_BY(seg_mu_);
  std::thread pump_host_;
  std::thread tx_host_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> frames_received_{0};

  static Mutex registry_mu_;
  static std::map<uint64_t, NetDaemon*> registry_ GUARDED_BY(registry_mu_);
  static uint64_t next_registry_id_ GUARDED_BY(registry_mu_);
  uint64_t registry_id_ = 0;
};

}  // namespace histar

#endif  // SRC_NET_NETD_H_
