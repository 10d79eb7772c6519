// Tests for type checking and the ordered type-and-effect system (section 5).
// The centerpiece is the paper's Figure 5 disordered program, which must be
// rejected with a source-level ordering diagnostic; plus function effect
// polymorphism, which lets one helper be reused at any consistent stage.
#include <gtest/gtest.h>

#include "sema/type_check.hpp"

namespace lucid::sema {
namespace {

FrontendResult analyze(std::string_view src, DiagnosticEngine& diags) {
  return parse_and_check(src, diags);
}

FrontendResult analyze_ok(std::string_view src) {
  DiagnosticEngine diags{std::string(src)};
  FrontendResult r = parse_and_check(src, diags);
  EXPECT_TRUE(r.ok) << diags.render();
  return r;
}

// ---------------------------------------------------------------------------
// Basic typing
// ---------------------------------------------------------------------------

TEST(TypeCheck, SimpleHandlerChecks) {
  analyze_ok(
      "global cnt = new Array<<32>>(16);\n"
      "memop plus(int cur, int x) { return cur + x; }\n"
      "event pkt(int dst);\n"
      "handle pkt(int dst) { Array.set(cnt, dst, plus, 1); }\n");
}

TEST(TypeCheck, UndefinedVariableIsRejected) {
  DiagnosticEngine diags;
  const auto r = analyze(
      "event e();\n"
      "handle e() { int x = missing; }\n",
      diags);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(diags.has_code("sema-undefined"));
}

TEST(TypeCheck, IfConditionMustBeBool) {
  DiagnosticEngine diags;
  const auto r = analyze(
      "event e(int x);\n"
      "handle e(int x) { if (x + 1) { int y = 0; } }\n",
      diags);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(diags.has_code("type-expected-bool"));
}

TEST(TypeCheck, WidthMismatchIsRejected) {
  DiagnosticEngine diags;
  const auto r = analyze(
      "event e(int<<16>> a, int<<32>> b);\n"
      "handle e(int<<16>> a, int<<32>> b) { int c = a + b; }\n",
      diags);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(diags.has_code("type-width-mismatch"));
}

TEST(TypeCheck, LiteralAdaptsToWidth) {
  analyze_ok(
      "event e(int<<16>> a);\n"
      "handle e(int<<16>> a) { int<<16>> c = a + 1; }\n");
}

TEST(TypeCheck, ConstsAreEvaluated) {
  const auto r = analyze_ok(
      "const int A = 4;\n"
      "const int B = A * 2 + 1;\n"
      "global arr = new Array<<32>>(B);\n"
      "event e();\n"
      "handle e() { int x = B; }\n");
  const auto* g = r.program.find_global("arr");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->resolved_size, 9);
}

TEST(TypeCheck, GroupMembersAreResolved) {
  const auto r = analyze_ok(
      "const int LEFT = 2;\n"
      "const group NEIGHBORS = {LEFT, 3, 4};\n"
      "event e();\n"
      "handle e() { int x = 0; }\n");
  const auto* g = r.program.find_group("NEIGHBORS");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->resolved_members, (std::vector<std::int64_t>{2, 3, 4}));
}

TEST(TypeCheck, EventIdsAreDense) {
  const auto r = analyze_ok(
      "event a();\n"
      "event b(int x);\n"
      "event c();\n"
      "handle a() { int q = 0; }\n");
  EXPECT_EQ(r.program.find_event("a")->event_id, 0);
  EXPECT_EQ(r.program.find_event("b")->event_id, 1);
  EXPECT_EQ(r.program.find_event("c")->event_id, 2);
}

TEST(TypeCheck, HandlerSignatureMustMatchEvent) {
  DiagnosticEngine diags;
  const auto r = analyze(
      "event e(int x);\n"
      "handle e(int x, int y) { int q = 0; }\n",
      diags);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(diags.has_code("sema-handler-signature"));
}

TEST(TypeCheck, HandlerWithoutEventIsRejected) {
  DiagnosticEngine diags;
  const auto r = analyze("handle ghost() { int q = 0; }\n", diags);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(diags.has_code("sema-handler-without-event"));
}

TEST(TypeCheck, GenerateRequiresEventValue) {
  DiagnosticEngine diags;
  const auto r = analyze(
      "event e(int x);\n"
      "handle e(int x) { generate x + 1; }\n",
      diags);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(diags.has_code("type-expected-event"));
}

TEST(TypeCheck, EventCtorArityChecked) {
  DiagnosticEngine diags;
  const auto r = analyze(
      "event e(int x);\n"
      "event f(int a, int b);\n"
      "handle e(int x) { generate f(x); }\n",
      diags);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(diags.has_code("sema-arity"));
}

TEST(TypeCheck, MemopCannotBeCalledDirectly) {
  DiagnosticEngine diags;
  const auto r = analyze(
      "memop plus(int a, int b) { return a + b; }\n"
      "event e(int x);\n"
      "handle e(int x) { int y = plus(x, 1); }\n",
      diags);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(diags.has_code("sema-memop-call"));
}

TEST(TypeCheck, RecursiveFunctionIsRejected) {
  DiagnosticEngine diags;
  const auto r = analyze(
      "fun int f(int x) { return f(x); }\n"
      "event e();\n"
      "handle e() { int q = f(1); }\n",
      diags);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(diags.has_code("sema-recursion"));
}

TEST(TypeCheck, DuplicateDeclarationIsRejected) {
  DiagnosticEngine diags;
  const auto r = analyze(
      "const int A = 1;\n"
      "const int A = 2;\n",
      diags);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(diags.has_code("sema-duplicate-name"));
}

TEST(TypeCheck, ArrayWidthOutsideOneTo64IsRejected) {
  // 4294967297 would wrap to 1 if narrowed to int before the check.
  for (const char* width : {"0", "65", "4294967297"}) {
    const std::string src =
        "global arr = new Array<<" + std::string(width) + ">>(8);\n";
    DiagnosticEngine diags;
    const auto r = analyze(src, diags);
    EXPECT_FALSE(r.ok) << width;
    EXPECT_TRUE(diags.has_code("sema-bad-array-width")) << width;
  }
  for (const char* width : {"1", "64"}) {
    const std::string src =
        "global arr = new Array<<" + std::string(width) + ">>(8);\n";
    analyze_ok(src);
  }
}

TEST(TypeCheck, SelfIsDefined) {
  analyze_ok(
      "event ping(int src);\n"
      "handle ping(int src) { generate Event.locate(ping(SELF), src); }\n");
}

TEST(TypeCheck, HashIsInt32) {
  analyze_ok(
      "global t = new Array<<32>>(256);\n"
      "event e(int a, int b);\n"
      "handle e(int a, int b) {\n"
      "  int idx = hash(7, a, b) & 255;\n"
      "  int v = Array.get(t, idx);\n"
      "}\n");
}

// ---------------------------------------------------------------------------
// Ordered data access (section 5)
// ---------------------------------------------------------------------------

// The paper's Figure 5 program: handlers access arr1/arr2 in opposite orders;
// setArr2 follows declaration order but setArr1 does not, so the program must
// be rejected with an ordering error that points at the bad access.
TEST(OrderedEffects, Figure5DisorderedProgramIsRejected) {
  DiagnosticEngine diags;
  const auto r = analyze(
      "const int SIZE = 16;\n"
      "global arr1 = new Array<<32>>(SIZE);\n"
      "global arr2 = new Array<<32>>(SIZE);\n"
      "event setArr1(int idx, int data);\n"
      "event setArr2(int idx, int data);\n"
      "handle setArr1(int idx, int data) {\n"
      "  int x = Array.get(arr2, idx);\n"
      "  Array.set(arr1, idx, x);\n"
      "}\n"
      "handle setArr2(int idx, int data) {\n"
      "  int x = Array.get(arr1, idx);\n"
      "  Array.set(arr2, idx, x);\n"
      "}\n",
      diags);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(diags.has_code("effect-out-of-order")) << diags.render();
  // The diagnostic cites the conflicting earlier access as a note.
  EXPECT_TRUE(diags.has_code("effect-prior-access")) << diags.render();
}

TEST(OrderedEffects, DeclarationOrderAccessIsAccepted) {
  analyze_ok(
      "global arr1 = new Array<<32>>(16);\n"
      "global arr2 = new Array<<32>>(16);\n"
      "event e(int idx);\n"
      "handle e(int idx) {\n"
      "  int x = Array.get(arr1, idx);\n"
      "  Array.set(arr2, idx, x);\n"
      "}\n");
}

TEST(OrderedEffects, DoubleAccessToSameArrayIsRejected) {
  // One sALU pass per array: get-then-set of the same array must be an
  // Array.update instead. The type system catches this as an ordering error.
  DiagnosticEngine diags;
  const auto r = analyze(
      "global arr = new Array<<32>>(16);\n"
      "event e(int idx);\n"
      "handle e(int idx) {\n"
      "  int x = Array.get(arr, idx);\n"
      "  Array.set(arr, idx, x + 1);\n"
      "}\n",
      diags);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(diags.has_code("effect-out-of-order"));
}

TEST(OrderedEffects, UpdateCombinesGetAndSet) {
  analyze_ok(
      "global arr = new Array<<32>>(16);\n"
      "memop rd(int cur, int x) { return cur; }\n"
      "memop plus(int cur, int x) { return cur + x; }\n"
      "event e(int idx);\n"
      "handle e(int idx) {\n"
      "  int old = Array.update(arr, idx, rd, 0, plus, 1);\n"
      "}\n");
}

TEST(OrderedEffects, BranchesMayAccessDifferentArrays) {
  // Both branches are laid out; the join takes the max stage.
  analyze_ok(
      "global a = new Array<<32>>(4);\n"
      "global b = new Array<<32>>(4);\n"
      "global c = new Array<<32>>(4);\n"
      "event e(int x);\n"
      "handle e(int x) {\n"
      "  if (x == 0) { Array.set(a, 0, 1); } else { Array.set(b, 0, 1); }\n"
      "  Array.set(c, 0, 1);\n"
      "}\n");
}

TEST(OrderedEffects, AccessAfterJoinRespectsMaxBranchStage) {
  DiagnosticEngine diags;
  const auto r = analyze(
      "global a = new Array<<32>>(4);\n"
      "global b = new Array<<32>>(4);\n"
      "event e(int x);\n"
      "handle e(int x) {\n"
      "  if (x == 0) { Array.set(b, 0, 1); }\n"
      "  Array.set(a, 0, 1);\n"  // a is before b: error after join
      "}\n",
      diags);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(diags.has_code("effect-out-of-order"));
}

TEST(OrderedEffects, HandlerEndStageIsReported) {
  const auto r = analyze_ok(
      "global a = new Array<<32>>(4);\n"
      "global b = new Array<<32>>(4);\n"
      "global c = new Array<<32>>(4);\n"
      "event e();\n"
      "handle e() {\n"
      "  int x = Array.get(a, 0);\n"
      "  int y = Array.get(c, 0);\n"
      "}\n");
  // End stage is c's stage (2) + 1.
  EXPECT_EQ(r.info.handler_end_stage.at("e"), 3);
}

// ---------------------------------------------------------------------------
// Function effect polymorphism (section 5.2 / Appendix A "extensions")
// ---------------------------------------------------------------------------

TEST(FunEffects, FunctionOverGlobalCheckedAtCallSite) {
  analyze_ok(
      "global pathlens = new Array<<32>>(64);\n"
      "fun int get_pathlen(int dst) {\n"
      "  return Array.get(pathlens, dst);\n"
      "}\n"
      "event q(int dst);\n"
      "handle q(int dst) { int p = get_pathlen(dst); }\n");
}

TEST(FunEffects, FunctionCalledAfterLaterArrayIsRejected) {
  DiagnosticEngine diags;
  const auto r = analyze(
      "global first = new Array<<32>>(4);\n"
      "global second = new Array<<32>>(4);\n"
      "fun int read_first(int i) { return Array.get(first, i); }\n"
      "event e(int i);\n"
      "handle e(int i) {\n"
      "  int s = Array.get(second, i);\n"
      "  int f = read_first(i);\n"  // would need to go backwards
      "}\n",
      diags);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(diags.has_code("effect-out-of-order")) << diags.render();
}

TEST(FunEffects, PolymorphicArrayParamReusedAtTwoStages) {
  // One helper, instantiated at stage 0 (arr1) and stage 1 (arr2): both are
  // consistent, which is exactly the polymorphism the paper's appendix
  // describes.
  analyze_ok(
      "global arr1 = new Array<<32>>(4);\n"
      "global arr2 = new Array<<32>>(4);\n"
      "memop plus(int cur, int x) { return cur + x; }\n"
      "fun void bump(Array<<32>> a, int i) {\n"
      "  Array.set(a, i, plus, 1);\n"
      "}\n"
      "event e(int i);\n"
      "handle e(int i) {\n"
      "  bump(arr1, i);\n"
      "  bump(arr2, i);\n"
      "}\n");
}

TEST(FunEffects, PolymorphicArrayParamOutOfOrderIsRejected) {
  DiagnosticEngine diags;
  const auto r = analyze(
      "global arr1 = new Array<<32>>(4);\n"
      "global arr2 = new Array<<32>>(4);\n"
      "memop plus(int cur, int x) { return cur + x; }\n"
      "fun void bump(Array<<32>> a, int i) {\n"
      "  Array.set(a, i, plus, 1);\n"
      "}\n"
      "event e(int i);\n"
      "handle e(int i) {\n"
      "  bump(arr2, i);\n"
      "  bump(arr1, i);\n"  // instantiates backwards: rejected
      "}\n",
      diags);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(diags.has_code("effect-out-of-order")) << diags.render();
}

TEST(FunEffects, TwoArrayParamsOrderedWithinFunction) {
  // A function accessing two array parameters in order imposes the
  // constraint s(a) + 1 <= s(b) on its callers.
  DiagnosticEngine diags;
  const auto r = analyze(
      "global arr1 = new Array<<32>>(4);\n"
      "global arr2 = new Array<<32>>(4);\n"
      "fun void copy(Array<<32>> src, Array<<32>> dst, int i) {\n"
      "  int v = Array.get(src, i);\n"
      "  Array.set(dst, i, v);\n"
      "}\n"
      "event ok_ev(int i);\n"
      "event bad_ev(int i);\n"
      "handle ok_ev(int i) { copy(arr1, arr2, i); }\n"
      "handle bad_ev(int i) { copy(arr2, arr1, i); }\n",
      diags);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(diags.has_code("effect-out-of-order")) << diags.render();
  // Only bad_ev's call site is in error; the diagnostic names the call.
  bool mentions_call = false;
  for (const auto& d : diags.all()) {
    if (d.message.find("copy") != std::string::npos) mentions_call = true;
  }
  EXPECT_TRUE(mentions_call);
}

TEST(FunEffects, InferredSignatureIsRecorded) {
  const auto r = analyze_ok(
      "global g = new Array<<32>>(4);\n"
      "fun int rd(int i) { return Array.get(g, i); }\n"
      "event e(int i);\n"
      "handle e(int i) { int v = rd(i); }\n");
  ASSERT_TRUE(r.info.fun_sigs.count("rd"));
  const auto& sig = r.info.fun_sigs.at("rd");
  // One constraint: start <= stage(g) == 0.
  ASSERT_EQ(sig.constraints.size(), 1u);
  EXPECT_TRUE(sig.constraints[0].rhs.concrete());
  EXPECT_EQ(sig.constraints[0].rhs.offset, 0);
  // End effect is concrete stage 1.
  EXPECT_EQ(sig.end.concrete_value(), 1);
}

}  // namespace
}  // namespace lucid::sema
