// Device-model and gold-driver tests: MMC controller + SD card FSM, DWC2 +
// mass storage, VC4/VCHIQ camera — exercised natively (developer machine).
#include <gtest/gtest.h>

#include <algorithm>

#include "src/workload/rpi3_testbed.h"
#include "src/workload/deploy_util.h"

namespace dlt {
namespace {

class NativeDeviceTest : public ::testing::Test {
 protected:
  NativeDeviceTest() : tb_(TestbedOptions{}) {}
  Rpi3Testbed tb_;
};

TEST_F(NativeDeviceTest, MmcProbeEnumeratesCard) {
  // Probe ran in the fixture; the card must be in transfer state with an RCA.
  EXPECT_EQ(SdCard::State::kTran, tb_.sd_card().state());
  EXPECT_NE(0, tb_.sd_card().rca());
}

TEST_F(NativeDeviceTest, MmcWriteReadDataIntegrity) {
  std::vector<uint8_t> data = PatternBuf(32 * 512, 0x99);
  ASSERT_EQ(Status::kOk, tb_.mmc_driver().WriteBlocks(512, 32, data.data()));
  std::vector<uint8_t> readback(32 * 512, 0);
  ASSERT_EQ(Status::kOk, tb_.mmc_driver().ReadBlocks(512, 32, readback.data()));
  EXPECT_EQ(data, readback);
  EXPECT_EQ(32u, tb_.sd_medium().sectors_written());
}

class MmcTransferSizeTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MmcTransferSizeTest, RoundTripsAtEveryGranularity) {
  // Property sweep over transfer sizes, including non-recorded ones: the gold
  // driver itself must handle arbitrary counts.
  Rpi3Testbed tb{TestbedOptions{}};
  uint32_t count = GetParam();
  std::vector<uint8_t> data = PatternBuf(count * 512, count);
  ASSERT_EQ(Status::kOk, tb.mmc_driver().WriteBlocks(1024, count, data.data()));
  std::vector<uint8_t> readback(count * 512ull, 0);
  ASSERT_EQ(Status::kOk, tb.mmc_driver().ReadBlocks(1024, count, readback.data()));
  EXPECT_EQ(data, readback);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MmcTransferSizeTest,
                         ::testing::Values(1, 2, 3, 7, 8, 9, 16, 31, 32, 33, 64, 100, 128, 200,
                                           256));

TEST_F(NativeDeviceTest, MmcDirectPioPathWorks) {
  // O_DIRECT flag: "the full driver shifts individual words of data blocks
  // from/to SDDATA" (paper §6.1.3 path 1).
  std::vector<uint8_t> data = PatternBuf(8 * 512, 0x31);
  ASSERT_EQ(Status::kOk,
            tb_.mmc_driver().Transfer(TValue(kMmcRwWrite), TValue(8), TValue(2048),
                                      TValue(kMmcFlagDirect), data.data(), data.size()));
  std::vector<uint8_t> readback(8 * 512, 0);
  ASSERT_EQ(Status::kOk,
            tb_.mmc_driver().Transfer(TValue(kMmcRwRead), TValue(8), TValue(2048),
                                      TValue(kMmcFlagDirect), readback.data(), readback.size()));
  EXPECT_EQ(data, readback);
}

TEST_F(NativeDeviceTest, MmcMisalignedRejectedByDriver) {
  std::vector<uint8_t> data(512);
  EXPECT_EQ(Status::kInvalidArg, tb_.mmc_driver().ReadBlocks(3, 1, data.data()));
}

TEST_F(NativeDeviceTest, MmcCardStatusReflectsFsm) {
  SdCard& card = tb_.sd_card();
  uint32_t st = card.StatusWord();
  EXPECT_EQ(static_cast<uint32_t>(SdCard::State::kTran), (st >> kSdStateShift) & 0xf);
  EXPECT_TRUE(st & kSdStatusReadyForData);
}

TEST_F(NativeDeviceTest, MmcIllegalCommandFlagged) {
  SdCard::CmdResult r = tb_.sd_card().Command(39, 0);
  EXPECT_TRUE(r.accepted);
  EXPECT_TRUE(r.response & kSdStatusIllegalCmd);
}

TEST_F(NativeDeviceTest, MmcSoftResetClearsResidueState) {
  // Leave residue: start a read and abandon it.
  auto& mem = tb_.machine().mem();
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, kMmcBase + kSdHblc, 1));
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, kMmcBase + kSdArg, 0));
  ASSERT_EQ(Status::kOk, mem.Write32(World::kNormal, kMmcBase + kSdCmd, kSdCmdNewFlag | 17));
  tb_.clock().Advance(100'000);
  EXPECT_NE(0u, *mem.Read32(World::kNormal, kMmcBase + kSdEdm) & 0xfff0);
  tb_.mmc().SoftReset();
  uint32_t edm = *mem.Read32(World::kNormal, kMmcBase + kSdEdm);
  EXPECT_EQ(kSdEdmStateIdle, edm & 0xf);
  EXPECT_EQ(0u, (edm >> kSdEdmFifoShift) & kSdEdmFifoMask);
  EXPECT_EQ(SdCard::State::kTran, tb_.sd_card().state());
}

TEST_F(NativeDeviceTest, UsbProbeEnumeratesStick) {
  EXPECT_EQ(1, tb_.usb_storage().usb_address());
  EXPECT_EQ(1, tb_.usb_storage().configuration());
}

TEST_F(NativeDeviceTest, UsbWriteReadDataIntegrity) {
  std::vector<uint8_t> data = PatternBuf(64 * 512, 0x55);
  ASSERT_EQ(Status::kOk, tb_.usb_driver().WriteBlocks(256, 64, data.data()));
  std::vector<uint8_t> readback(64 * 512, 0);
  ASSERT_EQ(Status::kOk, tb_.usb_driver().ReadBlocks(256, 64, readback.data()));
  EXPECT_EQ(data, readback);
}

TEST_F(NativeDeviceTest, UsbSubLbaWritePreservesNeighbours) {
  std::vector<uint8_t> base = PatternBuf(8 * 512, 0x66);
  ASSERT_EQ(Status::kOk, tb_.usb_driver().WriteBlocks(64, 8, base.data()));
  std::vector<uint8_t> two = PatternBuf(2 * 512, 0x77);
  ASSERT_EQ(Status::kOk, tb_.usb_driver().WriteBlocks(64, 2, two.data()));
  std::vector<uint8_t> readback(8 * 512, 0);
  ASSERT_EQ(Status::kOk, tb_.usb_driver().ReadBlocks(64, 8, readback.data()));
  EXPECT_TRUE(std::equal(two.begin(), two.end(), readback.begin()));
  EXPECT_TRUE(std::equal(base.begin() + 1024, base.end(), readback.begin() + 1024));
}

TEST_F(NativeDeviceTest, UsbHfnumAdvancesWithTime) {
  auto& mem = tb_.machine().mem();
  uint32_t a = *mem.Read32(World::kNormal, kUsbBase + kHfNum);
  tb_.clock().Advance(1250);
  uint32_t b = *mem.Read32(World::kNormal, kUsbBase + kHfNum);
  EXPECT_NE(a, b);  // the time-derived statistic input (paper §6.2.3)
}

TEST_F(NativeDeviceTest, UsbDisconnectFailsTransfersWithXactErr) {
  tb_.usb_storage().set_connected(false);
  std::vector<uint8_t> data(512);
  EXPECT_NE(Status::kOk, tb_.usb_driver().ReadBlocks(0, 1, data.data()));
  tb_.usb_storage().set_connected(true);
}

TEST_F(NativeDeviceTest, CameraSerialCaptureProducesFrames) {
  std::vector<uint8_t> buf(Vc4Firmware::FrameBytes(1080) + 4096);
  std::vector<uint8_t> img_size(4);
  Status s = tb_.cam_driver().Capture(TValue(2), TValue(1080), buf.data(), buf.size(),
                                      TValue(buf.size()), img_size.data());
  ASSERT_EQ(Status::kOk, s);
  EXPECT_EQ(2u, tb_.vc4().frames_produced());
  uint32_t size = 0;
  std::memcpy(&size, img_size.data(), 4);
  EXPECT_EQ(Vc4Firmware::FrameBytes(1080), size);
  EXPECT_EQ(0xff, buf[0]);
  EXPECT_EQ(0xd8, buf[1]);
}

TEST_F(NativeDeviceTest, CameraPipelinedModeCoalescesIrqs) {
  // Native streaming: many frames, fewer doorbell interrupts per frame than
  // the serial path (paper §7.3.2: "the native driver processes coalesced IRQs").
  TestbedOptions serial_opts;
  Rpi3Testbed serial_tb{serial_opts};
  std::vector<uint8_t> buf(Vc4Firmware::FrameBytes(720) + 4096);
  std::vector<uint8_t> img_size(4);
  ASSERT_EQ(Status::kOk,
            serial_tb.cam_driver().Capture(TValue(10), TValue(720), buf.data(), buf.size(),
                                           TValue(buf.size()), img_size.data()));
  uint64_t serial_irqs = serial_tb.machine().irq().raise_count(kMailboxIrq);
  uint64_t serial_us = serial_tb.clock().now_us();

  TestbedOptions pipe_opts;
  pipe_opts.pipelined_camera = true;
  Rpi3Testbed pipe_tb{pipe_opts};
  ASSERT_EQ(Status::kOk,
            pipe_tb.cam_driver().Capture(TValue(10), TValue(720), buf.data(), buf.size(),
                                         TValue(buf.size()), img_size.data()));
  uint64_t pipe_irqs = pipe_tb.machine().irq().raise_count(kMailboxIrq);
  uint64_t pipe_us = pipe_tb.clock().now_us();

  EXPECT_EQ(10u, pipe_tb.vc4().frames_produced());
  EXPECT_LE(pipe_irqs, serial_irqs);
  EXPECT_LT(pipe_us, serial_us);  // pipelining beats serial wall-clock
}

TEST_F(NativeDeviceTest, CameraFramesDifferAcrossSequence) {
  std::vector<uint8_t> a = Vc4Firmware::MakeFrame(0, 720);
  std::vector<uint8_t> b = Vc4Firmware::MakeFrame(1, 720);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, Vc4Firmware::MakeFrame(0, 720));  // deterministic
}

// The frame definition: one serial xorshift32 chain, low byte per step with
// 0xff mapped to 0xfe, between SOI/APP0 and EOI markers. MakeFrame computes
// the chain in jump-ahead lanes and must reproduce it byte for byte.
std::vector<uint8_t> SerialFrame(uint32_t seq, uint32_t resolution) {
  std::vector<uint8_t> f(Vc4Firmware::FrameBytes(resolution));
  if (f.size() < 8) {
    return f;
  }
  f[0] = 0xff;
  f[1] = 0xd8;
  f[2] = 0xff;
  f[3] = 0xe0;
  uint32_t x = seq * 2654435761u ^ resolution ^ 0x9e3779b9u;
  for (size_t i = 4; i + 2 < f.size(); ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    uint8_t b = static_cast<uint8_t>(x);
    f[i] = b == 0xff ? 0xfe : b;
  }
  f[f.size() - 2] = 0xff;
  f[f.size() - 1] = 0xd9;
  return f;
}

TEST(Vc4FrameTest, MatchesSerialChainByteForByte) {
  for (uint32_t res : {720u, 1080u, 1440u}) {
    for (uint32_t seq : {0u, 1u, 2u, 7u, 0xffffffffu}) {
      std::vector<uint8_t> f = Vc4Firmware::MakeFrame(seq, res);
      ASSERT_EQ(Vc4Firmware::FrameBytes(res), f.size()) << res;
      EXPECT_TRUE(f == SerialFrame(seq, res)) << "res " << res << " seq " << seq;
      EXPECT_EQ((std::vector<uint8_t>{0xff, 0xd8, 0xff, 0xe0}),
                std::vector<uint8_t>(f.begin(), f.begin() + 4));
      EXPECT_EQ(0xff, f[f.size() - 2]);
      EXPECT_EQ(0xd9, f[f.size() - 1]);
      EXPECT_EQ(f.end() - 2, std::find(f.begin() + 4, f.end(), 0xff)) << "marker in payload";
    }
  }
  EXPECT_TRUE(Vc4Firmware::MakeFrame(0, 480).empty());
  EXPECT_EQ(0u, Vc4Firmware::FrameBytes(480));
}

TEST_F(NativeDeviceTest, Vc4SoftResetDropsSessionState) {
  std::vector<uint8_t> buf(Vc4Firmware::FrameBytes(720) + 4096);
  std::vector<uint8_t> img_size(4);
  ASSERT_EQ(Status::kOk, tb_.cam_driver().Capture(TValue(1), TValue(720), buf.data(), buf.size(),
                                                  TValue(buf.size()), img_size.data()));
  tb_.vc4().SoftReset();
  // After reset a capture without a new handshake cannot work; a full new
  // session (fresh queue + handshake) must.
  tb_.kern_io().ReleaseDma();
  ASSERT_EQ(Status::kOk, tb_.cam_driver().Capture(TValue(1), TValue(720), buf.data(), buf.size(),
                                                  TValue(buf.size()), img_size.data()));
}

TEST_F(NativeDeviceTest, BlockMediumSparseBacking) {
  BlockMedium medium(40'000'000);  // 40M sectors, no memory committed
  std::vector<uint8_t> sector(512, 0xab);
  ASSERT_EQ(Status::kOk, medium.WriteSector(39'999'999, sector.data()));
  std::vector<uint8_t> readback(512);
  ASSERT_EQ(Status::kOk, medium.ReadSector(39'999'999, readback.data()));
  EXPECT_EQ(sector, readback);
  ASSERT_EQ(Status::kOk, medium.ReadSector(12'345, readback.data()));
  EXPECT_EQ(std::vector<uint8_t>(512, 0), readback);
  EXPECT_EQ(Status::kOutOfRange, medium.ReadSector(40'000'000, readback.data()));
}

}  // namespace
}  // namespace dlt
