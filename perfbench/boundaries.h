// Layer entry points the traced binary interposes with the linker's
// --wrap option (Itanium-mangled, GCC/Clang on x86-64 and aarch64).
// CMakeLists.txt reads the quoted names from this file, so it is the
// single list of wrapped symbols; wraps.cpp defines one wrapper per
// line. --wrap only sees calls that cross object files: a call inside
// the defining .cpp (FftPlan::Inverse -> Execute) or an inlined call
// stays untraced and its time lands in the caller's span.
#pragma once

// audio
#define SYM_TRANSMIT "_ZN8wearlock5audio11TwoMicScene17TransmitFromPhoneERKSt6vectorIdSaIdEEd"
#define SYM_AMBIENT "_ZN8wearlock5audio11TwoMicScene17RecordAmbientPairEm"
// sim
#define SYM_GAUSSIAN "_ZN8wearlock3sim3Rng14GaussianVectorEmd"
#define SYM_RUN_UNTIL_IDLE "_ZN8wearlock3sim10EventQueue12RunUntilIdleEv"
#define SYM_RUN_TASKS "_ZN8wearlock3sim16ParallelExecutor8RunTasksEmRKSt8functionIFvmEE"
// dsp
#define SYM_FFT_EXECUTE "_ZNK8wearlock3dsp7FftPlan7ExecuteEPSt7complexIdEb"
#define SYM_FFT_INVERSE "_ZNK8wearlock3dsp7FftPlan7InverseEPSt7complexIdE"
#define SYM_WARP "_ZN8wearlock3dsp12WarpTimeSincERKSt6vectorIdSaIdEEdm"
#define SYM_CONVOLVE "_ZN8wearlock3dsp8ConvolveERKSt6vectorIdSaIdEES5_"
// modem
#define SYM_PROBE "_ZNK8wearlock5modem13AcousticModem12AnalyzeProbeESt4spanIKdLm18446744073709551615EE"
#define SYM_DEMOD "_ZNK8wearlock5modem13AcousticModem10DemodulateESt4spanIKdLm18446744073709551615EENS0_10ModulationEm"
#define SYM_DEMOD_SOFT "_ZNK8wearlock5modem13AcousticModem14DemodulateSoftESt4spanIKdLm18446744073709551615EENS0_10ModulationEm"
// sensors
#define SYM_COLOCATED "_ZN8wearlock7sensors15MotionSimulator13CoLocatedPairENS0_8ActivityEm"
#define SYM_INDEPENDENT "_ZN8wearlock7sensors15MotionSimulator15IndependentPairENS0_8ActivityES2_m"
#define SYM_SENSOR_FILTER "_ZN8wearlock7sensors17SensorBasedFilterERKSt6vectorINS0_6Accel3ESaIS2_EES6_RKNS0_16FilterThresholdsERKNS0_10DtwOptionsE"
// protocol
#define SYM_SESSION_CTOR "_ZN8wearlock8protocol13UnlockSessionC1ENS0_14ScenarioConfigE"
#define SYM_SESSION_DTOR "_ZN8wearlock8protocol13UnlockSessionD1Ev"
#define SYM_START_ASYNC "_ZN8wearlock8protocol13UnlockSession10StartAsyncERNS_3sim10EventQueueEiRKNS0_15AttackInjectionESt8functionIFvRKNS0_12UnlockReportEEE"
#define SYM_AMBIENT_SIMILARITY "_ZN8wearlock8protocol17AmbientSimilarityERKSt6vectorIdSaIdEES5_RKNS0_23AmbientSimilarityConfigE"
// obs
#define SYM_INGEST "_ZN8wearlock3obs13TelemetrySink6IngestERKNS0_13SessionRecordE"
#define SYM_MERGE "_ZN8wearlock3obs13TelemetrySink5MergeERKS1_"
